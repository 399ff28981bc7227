// Robustness benchmark: the §2 use case of comparing, systematically, the
// fault-tolerance of different applications. Two implementations of the
// same config-loading program — one defensive, one sloppy — are swept
// through every (function, error code) fault in the libc profile,
// scheduled over all CPUs by the campaign engine and run on the
// fork-server runtime: the load pipeline executes once per app into a
// vm.Snapshot and every experiment restores from it in O(writable
// bytes), with prefix memoization sharing each trigger site's pre-fault
// prefix across its errno variants. That is the one executor `lfi
// sweep` runs; the report is byte-identical at any worker count and to
// the fresh-spawn oracle, which rebuilds the same guest for every run.
//
//	go run ./examples/robustness
package main

import (
	"fmt"
	"log"
	"runtime"

	"lfi/internal/experiments"
)

func main() {
	workers := runtime.GOMAXPROCS(0)
	res, err := experiments.Robustness(workers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Render())
	fmt.Println()
	fmt.Println("The defensive build tolerates or detects every injected fault;")
	fmt.Println("the sloppy build crashes — the systematic comparison §2 envisions,")
	fmt.Printf("swept with %d workers restoring from a shared snapshot.\n", workers)
}
