package kernel

import "testing"

// Dup duplicates a descriptor like dup(2), which guests cannot call, to
// alias one open-file description in tests: it is installed at the
// lowest free descriptor, sharing position and pipe/socket identity.
// Returns the new fd or -errno; at the table cap it fails with EMFILE,
// the same check as every other allocation path.
func (k *Kernel) Dup(pid int, fd int32) int32 {
	t := k.table(pid)
	f := t.get(fd)
	if f == nil {
		return -EBADF
	}
	if !k.room(t, 1) {
		return -EMFILE
	}
	nfd := t.add(f)
	if f.kind == filePipe {
		if f.rdEnd {
			f.pipe.readers++
		} else {
			f.pipe.writers++
		}
	}
	return nfd
}

// Disk-quota degradation: writes consume the armed quota, the last
// write is partial, and exhaustion returns ENOSPC from both Write and
// node-creating Open.

func TestDiskQuotaWrite(t *testing.T) {
	k := New()
	k.NewProcess(1)
	fd := k.Open(1, "/log", OCreat|OWronly)
	if fd < 0 {
		t.Fatalf("open: %d", fd)
	}
	k.ArmDiskQuota(10)

	if n, _ := k.Write(1, fd, []byte("12345678")); n != 8 {
		t.Fatalf("write under quota = %d, want 8", n)
	}
	// 2 bytes left: a 5-byte write is capped to a partial 2.
	if n, _ := k.Write(1, fd, []byte("abcde")); n != 2 {
		t.Fatalf("partial write = %d, want 2", n)
	}
	if n, _ := k.Write(1, fd, []byte("x")); n != -ENOSPC {
		t.Fatalf("exhausted write = %d, want -ENOSPC", n)
	}
	// Zero-length writes still succeed on a full disk, as POSIX's do.
	if n, _ := k.Write(1, fd, nil); n != 0 {
		t.Fatalf("zero write = %d, want 0", n)
	}
	st := k.Degradation()
	if !st.DiskArmed || !st.DiskTripped || st.DiskWritten != 10 {
		t.Fatalf("state = %+v", st)
	}
	if data, _ := k.FileData("/log"); string(data) != "12345678ab" {
		t.Fatalf("file = %q", data)
	}
	// Creating a new node on the full disk fails; opening an existing
	// one (a pure metadata read) still works.
	if ret := k.Open(1, "/new", OCreat|OWronly); ret != -ENOSPC {
		t.Fatalf("creating open = %d, want -ENOSPC", ret)
	}
	if ret := k.Open(1, "/log", ORdonly); ret < 0 {
		t.Fatalf("re-open existing = %d", ret)
	}
}

func TestDiskQuotaRearmResets(t *testing.T) {
	k := New()
	k.NewProcess(1)
	fd := k.Open(1, "/f", OCreat|OWronly)
	k.ArmDiskQuota(0)
	if n, _ := k.Write(1, fd, []byte("x")); n != -ENOSPC {
		t.Fatalf("write = %d, want -ENOSPC", n)
	}
	// Re-arming (a sticky trigger re-firing) resets written and tripped.
	k.ArmDiskQuota(4)
	st := k.Degradation()
	if st.DiskTripped || st.DiskWritten != 0 || st.DiskQuota != 4 {
		t.Fatalf("re-armed state = %+v", st)
	}
	if n, _ := k.Write(1, fd, []byte("ab")); n != 2 {
		t.Fatalf("write after re-arm = %d, want 2", n)
	}
}

// fd-pressure degradation: the effective table cap shrinks to the
// armed headroom, and every allocation path fails the same way.

func TestFDPressure(t *testing.T) {
	k := New()
	k.NewProcess(1)
	k.AddFile("/a", []byte("a"))
	fd := k.Open(1, "/a", ORdonly)
	if fd < 0 {
		t.Fatal(fd)
	}
	k.ArmFDPressure(1, 1) // one free slot left
	fd2 := k.Open(1, "/a", ORdonly)
	if fd2 < 0 {
		t.Fatalf("open within headroom = %d", fd2)
	}
	if ret := k.Open(1, "/a", ORdonly); ret != -EMFILE {
		t.Fatalf("open beyond headroom = %d, want -EMFILE", ret)
	}
	if ret := k.Dup(1, fd); ret != -EMFILE {
		t.Fatalf("dup beyond headroom = %d, want -EMFILE", ret)
	}
	if _, _, errno := k.Pipe(1); errno != EMFILE {
		t.Fatalf("pipe beyond headroom errno = %d, want EMFILE", errno)
	}
	st := k.Degradation()
	if !st.FDsArmed || !st.FDsTripped || st.FDsLimit != 2 {
		t.Fatalf("state = %+v", st)
	}
	// Closing frees a slot under the shrunk cap.
	k.Close(1, fd2)
	if ret := k.Open(1, "/a", ORdonly); ret < 0 {
		t.Fatalf("open after close = %d", ret)
	}
}

// Boundary consistency at exactly MaxFDs: install, Dup and Pipe all
// answer EMFILE from the same check, and pipe creation never leaks a
// descriptor when only one end fits.

func fillTable(t *testing.T, k *Kernel, pid int, upTo int) []int32 {
	t.Helper()
	k.AddFile("/fill", []byte("x"))
	var fds []int32
	for len(fds) < upTo {
		fd := k.Open(pid, "/fill", ORdonly)
		if fd < 0 {
			t.Fatalf("fill open %d = %d", len(fds), fd)
		}
		fds = append(fds, fd)
	}
	return fds
}

func TestFDBoundaryAtMaxFDs(t *testing.T) {
	k := New()
	k.NewProcess(1)
	fds := fillTable(t, k, 1, MaxFDs)
	if ret := k.Open(1, "/fill", ORdonly); ret != -EMFILE {
		t.Fatalf("open at MaxFDs = %d, want -EMFILE", ret)
	}
	if ret := k.Dup(1, fds[0]); ret != -EMFILE {
		t.Fatalf("dup at MaxFDs = %d, want -EMFILE", ret)
	}
	if _, _, errno := k.Pipe(1); errno != EMFILE {
		t.Fatalf("pipe at MaxFDs errno = %d, want EMFILE", errno)
	}

	// One slot free: a pipe needs two, so it must fail with EMFILE and
	// leave no descriptor behind.
	k.Close(1, fds[0])
	before := k.table(1).n
	if _, _, errno := k.Pipe(1); errno != EMFILE {
		t.Fatalf("pipe with 1 slot errno = %d, want EMFILE", errno)
	}
	if after := k.table(1).n; after != before {
		t.Fatalf("pipe leaked descriptors: %d -> %d", before, after)
	}
	// A single-fd allocation still fits in that slot.
	if ret := k.Dup(1, fds[1]); ret < 0 {
		t.Fatalf("dup with 1 slot = %d", ret)
	}

	// Two slots free: the pipe fits exactly, filling the table.
	k.Close(1, fds[2])
	k.Close(1, fds[3])
	rfd, wfd, errno := k.Pipe(1)
	if errno != 0 || rfd < 0 || wfd < 0 {
		t.Fatalf("pipe with 2 slots = (%d,%d,%d)", rfd, wfd, errno)
	}
	if got := k.table(1).n; got != MaxFDs {
		t.Fatalf("table population = %d, want %d", got, MaxFDs)
	}
}

func TestDupSharesDescription(t *testing.T) {
	k := New()
	k.NewProcess(1)
	k.AddFile("/d", []byte("abcdef"))
	fd := k.Open(1, "/d", ORdonly)
	nfd := k.Dup(1, fd)
	if nfd < 0 || nfd == fd {
		t.Fatalf("dup = %d", nfd)
	}
	// One shared offset, like POSIX dup.
	if data, n, _ := k.Read(1, fd, 3); n != 3 || string(data) != "abc" {
		t.Fatalf("read via fd = %q (%d)", data, n)
	}
	if data, n, _ := k.Read(1, nfd, 3); n != 3 || string(data) != "def" {
		t.Fatalf("read via dup = %q (%d)", data, n)
	}
	if ret := k.Dup(1, 999); ret != -EBADF {
		t.Fatalf("dup bad fd = %d, want -EBADF", ret)
	}
	// Dup'd pipe ends are refcounted: closing one write end must not
	// EOF the reader while its twin is open.
	rfd, wfd, _ := k.Pipe(1)
	wfd2 := k.Dup(1, wfd)
	if wfd2 < 0 {
		t.Fatal(wfd2)
	}
	k.Close(1, wfd)
	k.Write(1, wfd2, []byte("z"))
	if data, n, _ := k.Read(1, rfd, 1); n != 1 || string(data) != "z" {
		t.Fatalf("pipe read after twin close = %q (%d)", data, n)
	}
	k.Close(1, wfd2)
	if _, n, _ := k.Read(1, rfd, 1); n != 0 {
		t.Fatalf("pipe read after all writers closed = %d, want EOF", n)
	}
}

// Snapshot round-trips of degradation state: armed-but-untripped,
// tripped, and restored-mid-degradation kernels must come back
// bit-identically and keep degrading from exactly where they stopped.

func TestSnapshotRoundTripsDegradation(t *testing.T) {
	cases := []struct {
		name string
		prep func(k *Kernel) int32
	}{
		{"armed-untripped", func(k *Kernel) int32 {
			fd := k.Open(1, "/f", OCreat|OWronly)
			k.ArmDiskQuota(8)
			k.ArmFDPressure(1, 3)
			return fd
		}},
		{"mid-degradation", func(k *Kernel) int32 {
			fd := k.Open(1, "/f", OCreat|OWronly)
			k.ArmDiskQuota(8)
			k.Write(1, fd, []byte("abcde")) // 3 bytes left
			return fd
		}},
		{"tripped", func(k *Kernel) int32 {
			fd := k.Open(1, "/f", OCreat|OWronly)
			k.ArmDiskQuota(2)
			k.Write(1, fd, []byte("abcde")) // partial, exhausts
			k.Write(1, fd, []byte("x"))     // trips
			k.ArmFDPressure(1, 0)
			k.Open(1, "/f", ORdonly) // trips fds too
			return fd
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := New()
			k.NewProcess(1)
			fd := tc.prep(k)
			want := k.Degradation()
			snap := k.Snapshot()

			// Mutate the original past the snapshot point; the restored
			// copy must still match the frozen state.
			k.Write(1, fd, []byte("later"))
			k.ArmDiskQuota(1 << 20)

			r := snap.Restore()
			if got := r.Degradation(); got != want {
				t.Fatalf("restored degradation = %+v, want %+v", got, want)
			}
			// And a second restore is independent of the first.
			r.Write(1, fd, []byte("zz"))
			if got := snap.Restore().Degradation(); got != want {
				t.Fatalf("second restore diverged: %+v, want %+v", got, want)
			}
		})
	}
}

func TestRestoredKernelContinuesDegrading(t *testing.T) {
	k := New()
	k.NewProcess(1)
	fd := k.Open(1, "/f", OCreat|OWronly)
	k.ArmDiskQuota(6)
	k.Write(1, fd, []byte("abcd")) // 2 left
	snap := k.Snapshot()

	r := snap.Restore()
	if n, _ := r.Write(1, fd, []byte("wxyz")); n != 2 {
		t.Fatalf("restored partial write = %d, want 2", n)
	}
	if n, _ := r.Write(1, fd, []byte("q")); n != -ENOSPC {
		t.Fatalf("restored exhausted write = %d, want -ENOSPC", n)
	}
	if !r.Degradation().DiskTripped {
		t.Fatal("restored kernel did not trip")
	}
}

// The accept path under fd pressure: a serving listener whose table is
// saturated answers EMFILE without dropping the established connection,
// Socket starves the same way on the client side, and a kernel snapshot
// taken mid-connection — pressure armed and tripped, a peer queued on
// the backlog — restores to exactly that state and completes the
// connection once a descriptor frees up.

func TestFDPressureAcceptPath(t *testing.T) {
	k := New()
	k.NewProcess(1) // server
	k.NewProcess(2) // client
	lfd := k.Socket(1)
	if lfd < 0 || k.Listen(1, lfd, 80) != 0 {
		t.Fatal("listen setup failed")
	}
	cfd := k.Socket(2)
	if cfd < 0 || k.Connect(2, cfd, 80) != 0 {
		t.Fatal("connect failed")
	}
	if n, _ := k.Write(2, cfd, []byte("ping")); n != 4 {
		t.Fatalf("send to queued conn = %d", n)
	}

	// Zero headroom on the server: the accept's own slot allocation
	// fails, trips the degradation, and the connection stays queued.
	k.ArmFDPressure(1, 0)
	if ret, blocked := k.Accept(1, lfd); ret != -EMFILE || blocked {
		t.Fatalf("accept under pressure = (%d, %v), want (-EMFILE, false)", ret, blocked)
	}
	if st := k.Degradation(); !st.FDsArmed || !st.FDsTripped {
		t.Fatalf("state after starved accept = %+v", st)
	}

	// Socket starves on the client side too — same system-wide limit.
	if ret := k.Socket(2); ret != -EMFILE {
		t.Fatalf("socket under pressure = %d, want -EMFILE", ret)
	}

	// Snapshot mid-connection: armed+tripped, peer still on the backlog.
	want := k.Degradation()
	snap := k.Snapshot()

	r := snap.Restore()
	if got := r.Degradation(); got != want {
		t.Fatalf("restored degradation = %+v, want %+v", got, want)
	}
	// The restored server is still starved...
	if ret, _ := r.Accept(1, lfd); ret != -EMFILE {
		t.Fatalf("restored accept = %d, want -EMFILE", ret)
	}
	// ...until pressure lifts; then the queued connection — bytes and
	// all — is finally served.
	r.ArmFDPressure(1, 1)
	sfd, blocked := r.Accept(1, lfd)
	if sfd < 0 || blocked {
		t.Fatalf("accept after relief = (%d, %v)", sfd, blocked)
	}
	if data, n, _ := r.Read(1, sfd, 4); n != 4 || string(data) != "ping" {
		t.Fatalf("read after relieved accept = %q (%d)", data, n)
	}

	// The original kernel is untouched by the restored copy's progress.
	if st := k.Degradation(); st != want {
		t.Fatalf("original mutated: %+v, want %+v", st, want)
	}
	if ret, _ := k.Accept(1, lfd); ret != -EMFILE {
		t.Fatalf("original accept = %d, want -EMFILE", ret)
	}
}
