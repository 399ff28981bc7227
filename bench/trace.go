package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// tracer records spans around the benchmark's own calls into each layer
// of the program — the per-layer numbers come from outside the program.
// It is used from one goroutine: input builds and the traced replica are
// sequential. A nil *tracer records nothing, so the timed run shares the
// input-build code with the traced one.
type tracer struct {
	origin time.Time
	// keep appends every closed span to spans (the trace file); the
	// aggregates below are kept either way.
	keep  bool
	spans []span
	open  []openSpan
	exp   int

	self  map[string]time.Duration // self time per span name
	count map[string]int           // closed spans per name
	// rootDur is the duration of each closed root span, and layerSelf the
	// self time of the layer spans beneath roots of that name.
	rootDur   map[string]time.Duration
	layerSelf map[string]time.Duration
	vals      map[string]float64 // counters
}

// span is one recorded layer call: its name, start and end relative to
// the tracer's origin, the enclosing span (index into the span list, -1
// for a root) and the experiment it served (-1 for none).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Exp    int    `json:"exp"`
}

type openSpan struct {
	name  string
	id    int // index in spans, -1 when not kept
	start time.Time
	child time.Duration // part of the interval covered by child spans
}

// structural spans group layer calls; their self time is the replica's
// own glue, not a layer of the program.
var structural = map[string]bool{
	"replica.sweep":   true,
	"replica.persist": true,
	"core.baseline":   true,
	"core.experiment": true,
	"core.prefix":     true,
}

func newTracer() *tracer {
	return &tracer{
		origin:    time.Now(),
		exp:       -1,
		self:      map[string]time.Duration{},
		count:     map[string]int{},
		rootDur:   map[string]time.Duration{},
		layerSelf: map[string]time.Duration{},
		vals:      map[string]float64{},
	}
}

// begin opens a span and returns its depth, which end takes back.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	o := openSpan{name: name, id: -1, start: time.Now()}
	if t.keep {
		parent := -1
		for i := len(t.open) - 1; i >= 0; i-- {
			if t.open[i].id >= 0 {
				parent = t.open[i].id
				break
			}
		}
		o.id = len(t.spans)
		t.spans = append(t.spans, span{
			Name: name, Start: int64(o.start.Sub(t.origin)), Parent: parent, Exp: t.exp,
		})
	}
	t.open = append(t.open, o)
	return len(t.open) - 1
}

// end closes the innermost span, which must be the one begin returned
// depth for.
func (t *tracer) end(depth int) {
	if t == nil {
		return
	}
	if depth != len(t.open)-1 {
		panic(fmt.Sprintf("tracer: span %d closed out of order (%d open)", depth, len(t.open)))
	}
	now := time.Now()
	o := t.open[depth]
	t.open = t.open[:depth]
	dur := now.Sub(o.start)
	self := dur - o.child
	t.self[o.name] += self
	t.count[o.name]++
	if depth > 0 {
		t.open[depth-1].child += dur
		if !structural[o.name] {
			t.layerSelf[t.open[0].name] += self
		}
	} else {
		t.rootDur[o.name] += dur
	}
	if o.id >= 0 {
		t.spans[o.id].End = int64(now.Sub(t.origin))
	}
}

// add accumulates a counter.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.vals[name] += v
	}
}

// ms and us are a span name's total self time in milliseconds and
// microseconds.
func (t *tracer) ms(name string) float64 { return float64(t.self[name]) / 1e6 }
func (t *tracer) us(name string) float64 { return float64(t.self[name]) / 1e3 }

// write saves the kept spans as dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), blob, 0o644)
}
