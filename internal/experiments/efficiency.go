package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"lfi/internal/corpus"
	"lfi/internal/profiler"
)

// EfficiencyPoint is one library of the §6.2 profiling-time series.
type EfficiencyPoint struct {
	Library    string
	Functions  int
	CodeKB     int
	WallTime   time.Duration
	States     int
	Dependents int
	PaperSecs  float64 // 0 when the paper gives no number for this size
}

// EfficiencyResult reproduces §6.2: profiling time as a function of
// library size, from libdmx (18 functions, 8 KB, 0.2 s in the paper) to
// libxml2 (1612 functions, 897 KB, 20 s). Absolute times differ from the
// 2009 testbed; the shape — profiling time roughly linear in code size,
// seconds even for the largest library — is the reproduced claim.
type EfficiencyResult struct {
	Points []EfficiencyPoint
}

// Efficiency generates and profiles the size series. Each point is an
// independent corpus library with its own profiler instance, so the
// series can be swept by a pool of workers; points are reported in
// series order regardless of completion order. Because each point's
// WallTime is the §6.2 measurement itself, workers <= 0 defaults to the
// contention-free sequential series; pass an explicit count to trade
// timing fidelity for campaign throughput.
func Efficiency(workers int) (*EfficiencyResult, error) {
	specs := corpus.EfficiencySpecs()
	if workers <= 0 {
		workers = 1
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	points := make([]EfficiencyPoint, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				points[i], errs[i] = efficiencyPoint(specs[i])
			}
		}()
	}
	for i := range specs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &EfficiencyResult{Points: points}, nil
}

// efficiencyPoint generates and profiles one library of the series.
func efficiencyPoint(spec corpus.EfficiencySpec) (EfficiencyPoint, error) {
	lib, err := corpus.Generate(spec.Traits)
	if err != nil {
		return EfficiencyPoint{}, err
	}
	pr := profiler.New(profiler.Options{DropZeroReturns: true, DropPredicates: true})
	if err := pr.AddLibrary(lib.Object); err != nil {
		return EfficiencyPoint{}, err
	}
	start := time.Now()
	if _, err := pr.ProfileLibrary(spec.Traits.Name); err != nil {
		return EfficiencyPoint{}, err
	}
	elapsed := time.Since(start)
	st := pr.Stats()
	return EfficiencyPoint{
		Library:    spec.Traits.Name,
		Functions:  spec.ExportedFn,
		CodeKB:     len(lib.Object.Text) / 1024,
		WallTime:   elapsed,
		States:     st.StatesExpanded,
		Dependents: st.DependentsAnalyzed,
		PaperSecs:  spec.PaperSecs,
	}, nil
}

// Render prints the series.
func (r *EfficiencyResult) Render() string {
	var b strings.Builder
	b.WriteString("§6.2 — profiling time vs library size\n")
	b.WriteString("Library          Funcs  CodeKB  Time        States   Paper\n")
	for _, p := range r.Points {
		paper := "-"
		if p.PaperSecs > 0 {
			paper = fmt.Sprintf("%.1fs", p.PaperSecs)
		}
		fmt.Fprintf(&b, "%-16s %5d  %6d  %-10s  %7d  %s\n",
			p.Library, p.Functions, p.CodeKB, p.WallTime.Round(time.Millisecond), p.States, paper)
	}
	return b.String()
}
