// Stateful resource-exhaustion degradations — the kernel half of the
// scenario grammar's <exhaust> fault model.
//
// Unlike a one-shot errno store, an exhaustion fault changes kernel
// state: once armed, a disk-byte quota makes Write (and creating Open)
// return ENOSPC after the quota is consumed, and fd pressure shrinks
// the effective descriptor-table headroom so allocations return EMFILE.
// The armed/tripped state is part of the kernel's resource state proper:
// Snapshot/Restore carry it (clone copies it bit-identically), and
// the controller's mid-execution Checkpoint moves it across memoized
// prefix restores, so degradation campaigns stay byte-identical across
// CoW/flat restores and memo on/off.
package kernel

// exhaustState is the armed degradation state. The zero value means no
// degradation is armed — the kernel behaves exactly as before the fault
// model existed.
type exhaustState struct {
	diskArmed   bool
	diskQuota   int64 // bytes that may still be written when armed
	diskWritten int64 // bytes written since arming
	diskTripped bool  // an operation has returned ENOSPC

	fdsArmed   bool
	fdsLimit   int  // effective per-table descriptor cap (<= MaxFDs)
	fdsTripped bool // an allocation has returned EMFILE under the limit
}

// DegradationState is the exported snapshot of the kernel's armed
// resource degradations, used by controller checkpoints, reports and
// tests. The zero value means nothing is armed.
type DegradationState struct {
	DiskArmed   bool
	DiskQuota   int64
	DiskWritten int64
	DiskTripped bool

	FDsArmed   bool
	FDsLimit   int
	FDsTripped bool
}

// Tripped reports whether any armed degradation has actually failed an
// operation.
func (s DegradationState) Tripped() bool { return s.DiskTripped || s.FDsTripped }

// ArmDiskQuota arms (or re-arms) the disk-exhaustion degradation: after
// `after` more bytes are written, Write and node-creating Open fail
// with ENOSPC. Re-arming resets the written counter and the tripped
// flag — a sticky trigger that re-fires restarts the quota.
func (k *Kernel) ArmDiskQuota(after int64) {
	k.ex.diskArmed = true
	k.ex.diskQuota = after
	k.ex.diskWritten = 0
	k.ex.diskTripped = false
}

// ArmFDPressure arms (or re-arms) fd-table pressure: the effective
// MaxFDs shrinks so the process identified by pid has exactly `slots`
// free descriptors left at arm time. The limit applies to every table
// (descriptor tables are per-process but the degradation models a
// system-wide resource), and never exceeds MaxFDs.
func (k *Kernel) ArmFDPressure(pid int, slots int32) {
	limit := k.table(pid).n + int(slots)
	if limit > MaxFDs {
		limit = MaxFDs
	}
	k.ex.fdsArmed = true
	k.ex.fdsLimit = limit
	k.ex.fdsTripped = false
}

// Degradation exports the current degradation state.
func (k *Kernel) Degradation() DegradationState {
	return DegradationState{
		DiskArmed:   k.ex.diskArmed,
		DiskQuota:   k.ex.diskQuota,
		DiskWritten: k.ex.diskWritten,
		DiskTripped: k.ex.diskTripped,
		FDsArmed:    k.ex.fdsArmed,
		FDsLimit:    k.ex.fdsLimit,
		FDsTripped:  k.ex.fdsTripped,
	}
}

// SetDegradation overwrites the degradation state — the restore half of
// a controller checkpoint carrying armed state across a memoized prefix.
func (k *Kernel) SetDegradation(st DegradationState) {
	k.ex = exhaustState{
		diskArmed:   st.DiskArmed,
		diskQuota:   st.DiskQuota,
		diskWritten: st.DiskWritten,
		diskTripped: st.DiskTripped,
		fdsArmed:    st.FDsArmed,
		fdsLimit:    st.FDsLimit,
		fdsTripped:  st.FDsTripped,
	}
}

// diskRemaining returns how many bytes may still be written under an
// armed quota. Unarmed: effectively unlimited.
func (k *Kernel) diskRemaining() int64 {
	if !k.ex.diskArmed {
		return 1 << 62
	}
	rem := k.ex.diskQuota - k.ex.diskWritten
	if rem < 0 {
		rem = 0
	}
	return rem
}
