package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"lfi/internal/controller"
	"lfi/internal/core"
)

// StoreFile is the result file inside a store directory.
const StoreFile = "results.jsonl"

// Record is one persisted experiment result — a line of the store's
// JSONL file. It carries everything needed to (a) re-render the
// experiment's report row without re-running it (the resume path) and
// (b) triage the campaign offline: the injection-log digest for replay
// fidelity checks, the crash stack and its hash for clustering, and the
// cycle/coverage summary of the run.
type Record struct {
	// Key is the experiment's canonical identity (core.Experiment.Key):
	// report coordinates plus the faultload's canonical key. Resume
	// matches on it; the last record per key wins.
	Key string `json:"key"`

	// Report-row coordinates and outcome (core.SweepEntry).
	Library  string `json:"library"`
	Function string `json:"function"`
	Retval   int32  `json:"retval"`
	Errno    int32  `json:"errno,omitempty"`
	HasErrno bool   `json:"has_errno,omitempty"`
	// Fault is the degradation fault-model label (core.SweepEntry.Fault);
	// empty for error-return experiments, so pre-degradation stores
	// parse (and resume) unchanged.
	Fault    string `json:"fault,omitempty"`
	Outcome  string `json:"outcome"`
	ExitCode int32  `json:"exit_code"`
	Signal   int32  `json:"signal,omitempty"`

	// AuditClass is the caller-side audit classification of the target
	// function's most fragile call site (internal/audit), carried so
	// triage can separate statically predicted failures from surprises.
	// Empty when the sweep ran without an audit — pre-audit stores parse
	// (and resume) unchanged.
	AuditClass string `json:"audit_class,omitempty"`

	// Triage payload.
	Injections int      `json:"injections,omitempty"`
	LogDigest  string   `json:"log_digest,omitempty"`
	StackHash  string   `json:"stack_hash,omitempty"`
	CrashStack []string `json:"crash_stack,omitempty"`
	Cycles     uint64   `json:"cycles,omitempty"`
	Coverage   int      `json:"coverage,omitempty"`

	// Degradation payload: total injected latency, which resources were
	// armed ("disk", "fds", or "disk,fds"), and whether any armed
	// degradation actually failed an operation.
	DelayCycles    uint64 `json:"delay_cycles,omitempty"`
	Exhausted      string `json:"exhausted,omitempty"`
	ExhaustTripped bool   `json:"exhaust_tripped,omitempty"`

	// Availability payload (sweeps driven by a traffic client): the
	// run's availability class and the requests served before/during/
	// after the fault window. Empty/zero for non-availability sweeps,
	// so pre-availability stores parse (and resume) unchanged.
	Avail       string `json:"avail,omitempty"`
	AvailBefore int32  `json:"avail_before,omitempty"`
	AvailDuring int32  `json:"avail_during,omitempty"`
	AvailAfter  int32  `json:"avail_after,omitempty"`
}

// NewRecord distils one executed experiment into its persistent form.
// rep may be nil (entries synthesised without a run, e.g. pruned
// not-triggered experiments); the triage payload is then empty.
func NewRecord(exp *core.Experiment, entry core.SweepEntry, rep *core.Report) Record {
	r := Record{
		Key:      exp.Key(),
		Library:  entry.Library,
		Function: entry.Function,
		Retval:   entry.Retval,
		Errno:    entry.Errno,
		HasErrno: entry.HasErrno,
		Fault:    entry.Fault,
		Outcome:  string(entry.Outcome),
		ExitCode: entry.ExitCode,
		Signal:   entry.Signal,

		AuditClass: exp.Audit,

		Avail:       string(entry.Avail),
		AvailBefore: entry.AvailBefore,
		AvailDuring: entry.AvailDuring,
		AvailAfter:  entry.AvailAfter,
	}
	if rep != nil {
		r.Injections = len(rep.Injections)
		r.LogDigest = controller.LogDigest(rep.Injections)
		r.Cycles = rep.Cycles
		r.Coverage = rep.Coverage
		if entry.Outcome == core.OutcomeCrash {
			r.CrashStack = rep.CrashStack
			r.StackHash = controller.StackHash(rep.CrashStack, rep.Injections)
		}
		for _, inj := range rep.Injections {
			r.DelayCycles += inj.DelayCycles
		}
		degr := rep.Degradation
		if degr.DiskArmed {
			r.Exhausted = "disk"
		}
		if degr.FDsArmed {
			if r.Exhausted != "" {
				r.Exhausted += ",fds"
			} else {
				r.Exhausted = "fds"
			}
		}
		r.ExhaustTripped = degr.Tripped()
	}
	return r
}

// Entry reconstitutes the report row a resumed sweep commits in place
// of re-running the experiment.
func (r Record) Entry() core.SweepEntry {
	return core.SweepEntry{
		Library:  r.Library,
		Function: r.Function,
		Retval:   r.Retval,
		Errno:    r.Errno,
		HasErrno: r.HasErrno,
		Fault:    r.Fault,
		Outcome:  core.Outcome(r.Outcome),
		ExitCode: r.ExitCode,
		Signal:   r.Signal,

		Avail:       core.AvailClass(r.Avail),
		AvailBefore: r.AvailBefore,
		AvailDuring: r.AvailDuring,
		AvailAfter:  r.AvailAfter,
	}
}

// Store is the append-only on-disk result store of a campaign: one
// JSONL record per completed experiment, written live as sweep workers
// finish runs. Appends are serialised internally, so a single Store is
// safe to share across all workers of a sweep; append failures are
// latched and surfaced by Err after the sweep rather than interleaved
// into worker control flow.
//
// The file format is crash-tolerant by construction: records are
// self-contained lines, so a process killed mid-append leaves at most
// one torn trailing line, which Open discards (and truncates away) on
// the next start. Everything before it is intact — that is what makes
// kill-anywhere/resume-anywhere campaigns safe.
type Store struct {
	dir  string
	path string

	mu   sync.Mutex
	f    *os.File
	recs []Record
	err  error
}

// Open opens (creating if needed) the store directory and loads every
// intact record. A torn final line — the signature of a writer killed
// mid-append — is discarded and truncated so subsequent appends start
// on a clean line boundary; a malformed line anywhere else is a corrupt
// store and an error.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	path := filepath.Join(dir, StoreFile)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	recs, good, err := parseRecords(data)
	if err != nil {
		return nil, fmt.Errorf("campaign: %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if good < int64(len(data)) {
		// Drop the torn tail before appending anything after it.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("campaign: recover %s: %w", path, err)
		}
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: %w", err)
	}
	return &Store{dir: dir, path: path, f: f, recs: recs}, nil
}

// parseRecords decodes the store file, returning the intact records and
// the byte offset up to which the file is well-formed. The final line
// is recoverable — unterminated or unparsable means a writer died
// mid-append — but a malformed interior line is corruption.
func parseRecords(data []byte) ([]Record, int64, error) {
	var recs []Record
	var good int64
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// Unterminated final line: torn.
			break
		}
		line := data[off : off+nl]
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			if off+nl+1 == len(data) {
				// Unparsable final line: torn mid-append, recoverable.
				break
			}
			return nil, 0, fmt.Errorf("corrupt record at byte %d: %v", off, err)
		}
		recs = append(recs, r)
		off += nl + 1
		good = int64(off)
	}
	return recs, good, nil
}

// Append persists one record. Failures are latched (first error wins)
// and reported by Err; the in-memory view always includes the record so
// a same-process reader stays consistent with what the sweep produced.
func (s *Store) Append(rec Record) {
	line, err := json.Marshal(rec)
	if err != nil {
		s.fail(err)
		return
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, rec)
	if s.err != nil {
		return
	}
	if _, err := s.f.Write(line); err != nil {
		s.err = fmt.Errorf("campaign: append %s: %w", s.path, err)
	}
}

func (s *Store) fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = fmt.Errorf("campaign: %w", err)
	}
}

// Err reports the first append failure, if any — check it after a sweep
// that wrote through this store.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Records returns a copy of every record currently in the store, in
// append order (loaded records first).
func (s *Store) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Record(nil), s.recs...)
}

// Completed indexes the store by experiment key, last record winning —
// the resume filter's view.
func (s *Store) Completed() map[string]Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]Record, len(s.recs))
	for _, r := range s.recs {
		out[r.Key] = r
	}
	return out
}

// Close flushes and closes the underlying file. The store must not be
// appended to afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return s.err
	}
	err := s.f.Close()
	s.f = nil
	if s.err != nil {
		return s.err
	}
	if err != nil {
		return fmt.Errorf("campaign: close %s: %w", s.path, err)
	}
	return nil
}
