package kernel

import (
	"bytes"
	"sync"
	"testing"
)

// An open that fails for lack of a descriptor has no effect on the file
// system: O_CREAT creates nothing and O_TRUNC truncates nothing, whether
// the table is full at MaxFDs or the armed fd-pressure limit is.
func TestOpenEMFILELeavesFileSystemUntouched(t *testing.T) {
	for _, armed := range []bool{false, true} {
		k := New()
		k.NewProcess(1)
		k.AddFile("/keep", []byte("precious"))
		if armed {
			k.ArmFDPressure(1, 0)
		} else {
			fillTable(t, k, 1, MaxFDs)
		}
		if ret := k.Open(1, "/new", OCreat|OWronly); ret != -EMFILE {
			t.Fatalf("armed=%v: creating open = %d, want -EMFILE", armed, ret)
		}
		if _, ok := k.FileData("/new"); ok {
			t.Errorf("armed=%v: a failed O_CREAT open created the file", armed)
		}
		if ret := k.Open(1, "/keep", OWronly|OTrunc); ret != -EMFILE {
			t.Fatalf("armed=%v: truncating open = %d, want -EMFILE", armed, ret)
		}
		if got, _ := k.FileData("/keep"); string(got) != "precious" {
			t.Errorf("armed=%v: a failed O_TRUNC open left %q, want %q", armed, got, "precious")
		}
		if got := k.Degradation().FDsTripped; got != armed {
			t.Errorf("armed=%v: FDsTripped = %v", armed, got)
		}
	}
}

// Appending to a regular file grows its inode amortized: small appends
// to a 64 KiB file do not copy the file each time.
func TestFileAppendAmortized(t *testing.T) {
	k := New()
	k.NewProcess(1)
	fd := k.Open(1, "/wal", OCreat|OWronly|OAppend)
	if n, _ := k.Write(1, fd, make([]byte, 64<<10)); n != 64<<10 {
		t.Fatalf("initial write = %d", n)
	}
	rec := []byte("0123456789")
	const runs = 1000
	allocs := testing.AllocsPerRun(runs, func() {
		if n, _ := k.Write(1, fd, rec); n != int32(len(rec)) {
			t.Fatalf("append = %d", n)
		}
	})
	if allocs > 0 {
		t.Errorf("append allocates %.1f objects per write, want amortized 0", allocs)
	}
	data, _ := k.FileData("/wal")
	if want := 64<<10 + (runs+1)*len(rec); len(data) != want {
		t.Fatalf("file length = %d, want %d", len(data), want)
	}
	if !bytes.Equal(data[len(data)-len(rec):], rec) {
		t.Fatalf("file ends in %q", data[len(data)-len(rec):])
	}
}

// TestKernelAllocFree is the kernel's allocation floor. Under armed fd
// pressure every allocating syscall fails with EMFILE before building
// anything, so a guest spinning on a failing accept costs no garbage;
// and a steady connect → accept → close cycle allocates only the
// connection's sock.
func TestKernelAllocFree(t *testing.T) {
	k := New()
	k.NewProcess(1) // server
	k.NewProcess(2) // client
	k.AddFile("/f", []byte("x"))
	lfd := k.Socket(1)
	if lfd < 0 || k.Listen(1, lfd, 80) != 0 {
		t.Fatal("listen setup failed")
	}
	fd := k.Open(1, "/f", ORdonly)
	if fd < 0 {
		t.Fatal(fd)
	}
	// A queued connection, so accept gets as far as allocating.
	if cfd := k.Socket(2); cfd < 0 || k.Connect(2, cfd, 80) != 0 {
		t.Fatal("connect failed")
	}
	k.ArmFDPressure(1, 0)
	failing := []struct {
		name string
		op   func() int32
	}{
		{"accept", func() int32 { ret, _ := k.Accept(1, lfd); return ret }},
		{"socket", func() int32 { return k.Socket(1) }},
		{"open", func() int32 { return k.Open(1, "/f", ORdonly) }},
		{"open-creat", func() int32 { return k.Open(1, "/g", OCreat|OWronly|OTrunc) }},
		{"pipe", func() int32 { _, _, errno := k.Pipe(1); return -errno }},
		{"dup", func() int32 { return k.Dup(1, fd) }},
	}
	for _, tc := range failing {
		var ret int32
		allocs := testing.AllocsPerRun(100, func() { ret = tc.op() })
		if ret != -EMFILE {
			t.Errorf("%s under pressure = %d, want -EMFILE", tc.name, ret)
		}
		if allocs > 0 {
			t.Errorf("failing %s allocates %.1f objects, want 0", tc.name, allocs)
		}
	}
	if !k.Degradation().FDsTripped {
		t.Error("EMFILE under the armed limit did not trip the degradation")
	}

	k.ex = exhaustState{} // lift the pressure
	if ret, _ := k.Accept(1, lfd); ret < 0 {
		t.Fatalf("accept of the queued connection = %d", ret)
	}
	cycle := func() {
		cfd := k.Socket(2)
		if k.Connect(2, cfd, 80) != 0 {
			t.Fatal("connect failed")
		}
		sfd, blocked := k.Accept(1, lfd)
		if sfd < 0 || blocked {
			t.Fatalf("accept = (%d, %v)", sfd, blocked)
		}
		k.Close(2, cfd)
		k.Close(1, sfd)
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 1 {
		t.Errorf("connect/accept/close allocates %.1f objects, want 1 (the sock)", allocs)
	}
}

// Kernels restored from one snapshot share nothing mutable: eight
// goroutines each drive file, pipe and socket traffic on their own
// restore, lock-free, while the template stays frozen. Run under -race
// this checks the single-owner contract of Kernel.
func TestRestoredKernelsConcurrent(t *testing.T) {
	tmpl := New()
	tmpl.NewProcess(1)
	tmpl.AddFile("/log", []byte("head:"))
	lfd := tmpl.Socket(1)
	if tmpl.Listen(1, lfd, 80) != 0 {
		t.Fatal("listen failed")
	}
	snap := tmpl.Snapshot()

	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w byte) {
			defer wg.Done()
			k := snap.Restore()
			k.NewProcess(2)
			for i := 0; i < rounds; i++ {
				fd := k.Open(1, "/log", OWronly|OAppend)
				k.Write(1, fd, []byte{w})
				k.Close(1, fd)

				r, wr, errno := k.Pipe(1)
				if errno != 0 {
					t.Errorf("worker %d: pipe errno %d", w, errno)
					return
				}
				k.Write(1, wr, []byte{w})
				if data, n, _ := k.Read(1, r, 1); n != 1 || data[0] != w {
					t.Errorf("worker %d: pipe read %v (%d)", w, data, n)
					return
				}
				k.Close(1, r)
				k.Close(1, wr)

				cfd := k.Socket(2)
				if k.Connect(2, cfd, 80) != 0 {
					t.Errorf("worker %d: connect failed", w)
					return
				}
				sfd, _ := k.Accept(1, lfd)
				k.Write(2, cfd, []byte{w})
				if data, n, _ := k.Read(1, sfd, 1); n != 1 || data[0] != w {
					t.Errorf("worker %d: socket read %v (%d)", w, data, n)
					return
				}
				k.Close(2, cfd)
				k.Close(1, sfd)
			}
			got, _ := k.FileData("/log")
			want := append([]byte("head:"), bytes.Repeat([]byte{w}, rounds)...)
			if !bytes.Equal(got, want) {
				t.Errorf("worker %d: /log = %q", w, got)
			}
		}(byte(w))
	}
	wg.Wait()
	if got, _ := tmpl.FileData("/log"); string(got) != "head:" {
		t.Errorf("template /log = %q, want it frozen", got)
	}
}

// A descriptor whose file was truncated behind its offset writes at
// that offset, and the hole before it reads as zeroes.
func TestWriteAfterTruncationZeroFills(t *testing.T) {
	k := New()
	k.NewProcess(1)
	fd := k.Open(1, "/t", OCreat|OWronly)
	k.Write(1, fd, []byte("abcdef"))
	if k.Open(1, "/t", OWronly|OTrunc) < 0 {
		t.Fatal("truncating open failed")
	}
	k.Write(1, fd, []byte("x"))
	if got, _ := k.FileData("/t"); string(got) != "\x00\x00\x00\x00\x00\x00x" {
		t.Fatalf("file = %q", got)
	}
}
