// Package kernel implements the synthetic operating-system kernel beneath
// the SIA-32 virtual machine.
//
// It plays two roles in the LFI reproduction:
//
//  1. Runtime substrate: the VM traps OpSyscall into Kernel, which
//     implements Linux-flavoured files, pipes, heap, process and loopback
//     socket services with -errno error returns.
//
//  2. Static-analysis subject: §3.1 of the paper observes that libc wraps
//     kernel system calls, so "many dependent functions reside in the
//     kernel" and LFI "performs static analysis on the kernel image as
//     well". Image() compiles a MiniC kernel image whose per-syscall
//     handlers return exactly the -errno constants the runtime can
//     produce; the profiler analyses that image to recover error codes
//     that libc propagates.
//
// Both roles are driven by the same Spec table, so the analysable image
// and the executable behaviour cannot drift apart.
package kernel

// Linux-flavoured errno values. The subset mirrors the codes that appear
// in the paper's discussion (EBADF/EIO/EINTR for close; EWOULDBLOCK for
// read; ENOMEM for modify_ldt; ENOSPC and ENOLINK for the HP/UX and
// Solaris close variants).
const (
	EPERM        int32 = 1
	ENOENT       int32 = 2
	ESRCH        int32 = 3
	EINTR        int32 = 4
	EIO          int32 = 5
	ENXIO        int32 = 6
	EBADF        int32 = 9
	ECHILD       int32 = 10
	EAGAIN       int32 = 11
	ENOMEM       int32 = 12
	EACCES       int32 = 13
	EFAULT       int32 = 14
	EBUSY        int32 = 16
	EEXIST       int32 = 17
	ENOTDIR      int32 = 20
	EISDIR       int32 = 21
	EINVAL       int32 = 22
	ENFILE       int32 = 23
	EMFILE       int32 = 24
	ENOSPC       int32 = 28
	EPIPE        int32 = 32
	ENOSYS       int32 = 38
	ENOLINK      int32 = 67
	ECONNREFUSED int32 = 111

	// EWOULDBLOCK aliases EAGAIN, as on Linux.
	EWOULDBLOCK = EAGAIN
)

var errnoNames = map[int32]string{
	EPERM: "EPERM", ENOENT: "ENOENT", ESRCH: "ESRCH", EINTR: "EINTR",
	EIO: "EIO", ENXIO: "ENXIO", EBADF: "EBADF", ECHILD: "ECHILD",
	EAGAIN: "EAGAIN", ENOMEM: "ENOMEM", EACCES: "EACCES", EFAULT: "EFAULT",
	EBUSY: "EBUSY", EEXIST: "EEXIST", ENOTDIR: "ENOTDIR", EISDIR: "EISDIR",
	EINVAL: "EINVAL", ENFILE: "ENFILE", EMFILE: "EMFILE", ENOSPC: "ENOSPC",
	EPIPE: "EPIPE", ENOSYS: "ENOSYS", ENOLINK: "ENOLINK",
	ECONNREFUSED: "ECONNREFUSED",
}

var errnoByName = func() map[string]int32 {
	m := make(map[string]int32, len(errnoNames)+1)
	for v, n := range errnoNames {
		m[n] = v
	}
	m["EWOULDBLOCK"] = EWOULDBLOCK
	return m
}()

// ErrnoName returns the symbolic name of an errno value ("EBADF"), or an
// empty string if unknown.
func ErrnoName(v int32) string { return errnoNames[v] }

// ErrnoByName resolves a symbolic errno name to its value.
func ErrnoByName(name string) (int32, bool) {
	v, ok := errnoByName[name]
	return v, ok
}
