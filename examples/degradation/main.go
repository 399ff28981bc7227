// Stateful degradation fault models: the scenario grammar's <delay>
// and <exhaust> triggers compared against the paper's one-shot
// error-return model. Two journal writers — one that retries a failed
// write once, one that only checks — are swept under (a) the classic
// (function, error code) matrix and (b) the degradation matrix:
// latency injected past the cycle budget, a disk quota that makes
// every write after the trigger fail with ENOSPC, and fd-table
// pressure that makes descriptor allocations fail with EMFILE. The
// retry absorbs the one-shot errno fault, so the error-return sweep
// calls that writer robust — but a disk that stays full defeats the
// retry, and a stalled call hangs it: stateful failures the one-shot
// model masks. Both matrices run on the snapshot executor `lfi sweep`
// uses: every run restores from one post-load snapshot per writer.
//
//	go run ./examples/degradation
package main

import (
	"fmt"
	"log"
	"runtime"

	"lfi/internal/experiments"
)

func main() {
	workers := runtime.GOMAXPROCS(0)
	res, err := experiments.FaultModels(workers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Render())
	fmt.Println()
	fmt.Println("The error-return matrix reports the retrying writer handles write")
	fmt.Println("faults; the degradation matrix shows persistent exhaustion defeats")
	fmt.Println("the retry and injected latency hangs it — outcomes only a stateful")
	fmt.Println("fault model can produce.")
}
