// Command bench is the campaign benchmark of the LFI reproduction: it
// measures what a user waits on when running fault-injection campaigns,
// on four seeded sweep workloads, through the public core and campaign
// entry points. Run it from the root of a checkout:
//
//	bash bench/run.sh --workload errno-corpus --seed 3 --seconds 20 --trace 0
//	bash bench/run.sh -compare BASE.json NEW.json
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// replays the workload through a benchmark-side replica of the snapshot
// executor and prints the per-layer metrics. Either way every sweep is
// checked against a fresh-spawn oracle, and the last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	runtime.GOMAXPROCS(workers)
	name := flag.String("workload", "", "workload to run: errno-corpus, errno-heavy, avail-minidb or resume-corpus")
	seed := flag.Int64("seed", 3, "seed of every generated input")
	seconds := flag.Float64("seconds", 20, "run length in seconds; whole repetitions run until it has elapsed")
	trace := flag.Int("trace", 0, "1 runs the traced replica and prints the per-layer metrics")
	appendTo := flag.String("append", "", "also append this run's metrics to a results file for -compare")
	compare := flag.Bool("compare", false, "compare two results files: -compare BASE.json NEW.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare BASE.json NEW.json")
			os.Exit(2)
		}
		worse, err := runCompare("BENCHMARK.json", flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	length := time.Duration(*seconds * float64(time.Second))
	const outDir = "bench/out"
	var res *result
	switch *trace {
	case 0:
		res, err = runTimed(w, *seed, fullCorpus, length, outDir)
	case 1:
		res, err = runTraced(w, *seed, fullCorpus, length, outDir)
	default:
		err = fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %s %.6g %s\n", w.name, n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if *appendTo != "" {
		if err := appendRun(*appendTo, w.name, *seed, *trace, length, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "bench: %d of %d experiments differ from the fresh-spawn oracle\n", res.Failed, res.Attempted)
		os.Exit(1)
	}
}
