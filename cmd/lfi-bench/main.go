// Command lfi-bench regenerates every table and figure of the paper's
// evaluation and prints paper-vs-measured rows.
//
//	lfi-bench -run all
//	lfi-bench -run table3 -requests 1000
//	lfi-bench -run table1 -funcs 20000
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lfi/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lfi-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	which := flag.String("run", "all",
		"experiments to run: all, or comma-separated of table1,table2,efficiency,robustness,correlated,table3,table4,pidgin,coverage,docgaps,figure2,availability,audit")
	funcs := flag.Int("funcs", 5000, "table1 corpus size (paper: >20000)")
	requests := flag.Int("requests", 1000, "table3 AB requests per cell (paper: 1000)")
	txns := flag.Int("txns", 200, "table4 transactions per cell")
	seed := flag.Int64("seed", 42, "table1 corpus seed")
	jobs := flag.Int("j", 0, "parallel workers (0 = GOMAXPROCS for sweeps; sequential for the efficiency timing series)")
	flag.Parse()

	sel := map[string]bool{}
	if *which == "all" {
		for _, k := range []string{"figure2", "table1", "table2", "efficiency", "robustness", "correlated", "table3", "table4", "pidgin", "coverage", "docgaps", "availability", "audit"} {
			sel[k] = true
		}
	} else {
		for _, k := range strings.Split(*which, ",") {
			sel[strings.TrimSpace(k)] = true
		}
	}

	var env *experiments.Env
	needEnv := sel["table3"] || sel["table4"] || sel["pidgin"] || sel["coverage"] || sel["docgaps"]
	if needEnv {
		e, err := experiments.NewEnv()
		if err != nil {
			return err
		}
		env = e
	}

	section := func(name string) { fmt.Printf("\n========== %s ==========\n", name) }

	if sel["figure2"] {
		section("Figure 2")
		r, err := experiments.Figure2()
		if err != nil {
			return err
		}
		fmt.Print(r.Render())
	}
	if sel["table1"] {
		section("Table 1")
		r, err := experiments.Table1(*funcs, *seed)
		if err != nil {
			return err
		}
		fmt.Print(r.Render())
	}
	if sel["table2"] {
		section("Table 2")
		r, err := experiments.Table2()
		if err != nil {
			return err
		}
		fmt.Print(r.Render())
	}
	if sel["efficiency"] {
		section("§6.2 Efficiency")
		r, err := experiments.Efficiency(*jobs)
		if err != nil {
			return err
		}
		fmt.Print(r.Render())
	}
	if sel["robustness"] {
		section("§2 Robustness comparison")
		r, err := experiments.Robustness(*jobs)
		if err != nil {
			return err
		}
		fmt.Print(r.Render())
		for _, a := range r.Apps {
			if a.Result.Memo != nil {
				fmt.Fprintf(os.Stderr, "%s %s\n", a.Name, a.Result.Memo.String())
			}
		}
	}
	if sel["availability"] {
		section("Availability under fault")
		r, err := experiments.Availability(*jobs)
		if err != nil {
			return err
		}
		fmt.Print(r.Render())
		for _, s := range r.Servers {
			if s.Sweep.Memo != nil {
				fmt.Fprintf(os.Stderr, "%s %s\n", s.Name, s.Sweep.Memo.String())
			}
		}
	}
	if sel["audit"] {
		section("Caller-side audit")
		r, err := experiments.StaticAudit(*jobs)
		if err != nil {
			return err
		}
		fmt.Print(r.Render())
	}
	if sel["correlated"] {
		section("§4 Correlated faultload")
		r, err := experiments.Correlated()
		if err != nil {
			return err
		}
		fmt.Print(r.Render())
	}
	if sel["table3"] {
		section("Table 3")
		r, err := experiments.Table3(env, *requests)
		if err != nil {
			return err
		}
		fmt.Print(r.Render())
		fmt.Printf("max overhead vs baseline: %.1f%% (paper: ~5-6%% at 1000 triggers)\n", 100*r.MaxOverhead())
	}
	if sel["table4"] {
		section("Table 4")
		r, err := experiments.Table4(env, *txns)
		if err != nil {
			return err
		}
		fmt.Print(r.Render())
		fmt.Printf("max throughput loss: %.1f%% (paper: ~1-2%% at 1000 triggers)\n", 100*r.MaxThroughputLoss())
	}
	if sel["pidgin"] {
		section("§6.1 Pidgin")
		r, err := experiments.PidginBug(env, 60)
		if err != nil {
			return err
		}
		fmt.Print(r.Render())
	}
	if sel["coverage"] {
		section("§6.1 Coverage")
		r, err := experiments.DBCoverage(env)
		if err != nil {
			return err
		}
		fmt.Print(r.Render())
	}
	if sel["docgaps"] {
		section("§3.1/§3.3 Documentation gaps")
		r, err := experiments.DocGaps(env)
		if err != nil {
			return err
		}
		fmt.Print(r.Render())
	}
	return nil
}
