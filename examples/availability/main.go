// Availability under fault: the paper's robustness question asked of a
// service instead of a process. A generated traffic client pumps
// phased request traffic — warmup, steady state, post-fault probe —
// through the deterministic kernel's loopback sockets at two WAL-backed
// transaction servers that differ only in whether a failed append is
// retried. Faults open mid-steady-state via <calls after=N> windows,
// and every run is classified by what the service did: recovered
// (post-fault probe clean, latency inside the envelope), degraded
// (still answering, but with errors or elevated latency), lost
// (requests dropped, then service restored), wedged (stopped answering)
// or crashed (a server process died). The one-shot write errno the
// retry absorbs turns into permanent degradation without it — and no
// retry helps against a disk that stays full or a call that never
// returns. The matrices run on the snapshot executor `lfi sweep -avail`
// uses, so the latency envelope compares runs of one guest.
//
//	go run ./examples/availability
package main

import (
	"fmt"
	"log"
	"runtime"

	"lfi/internal/experiments"
)

func main() {
	workers := runtime.GOMAXPROCS(0)
	res, err := experiments.Availability(workers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Render())
	fmt.Println()
	fmt.Println("The served=warmup/steady/post counts are the per-run availability")
	fmt.Println("evidence: a wedged run stops serving inside the fault window, a")
	fmt.Println("degraded run keeps answering (with errors or late), and only a")
	fmt.Println("recovered run finishes its post-fault probe clean.")
}
