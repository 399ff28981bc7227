package apps_test

import (
	"testing"

	"lfi/internal/apps"
	"lfi/internal/vm"
)

// readAvail reads one av_* counter from the client program's globals.
func readAvail(t *testing.T, p *vm.Proc, client, sym string) int32 {
	t.Helper()
	im, ok := p.ImageByName(client)
	if !ok {
		t.Fatalf("no image %q", client)
	}
	va, ok := im.SymbolVA(sym)
	if !ok {
		t.Fatalf("no symbol %q in %s", sym, client)
	}
	v, err := p.ReadWord(va)
	if err != nil {
		t.Fatalf("read %s: %v", sym, err)
	}
	return v
}

func TestNewServerAppsCompile(t *testing.T) {
	for _, n := range []string{"httpd-mp", "httpdw", "minidb-nr", "minidb-drv", "minidb-nr-drv", "httpd-mp-drv", "httpd-drv"} {
		if _, err := apps.Compile(n); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if _, err := apps.AvailClientSource("pidgin"); err == nil {
		t.Error("pidgin should have no availability client")
	}
}

// driveClean runs the generated traffic client against its server with
// no faults injected and returns the client process. Every request of
// every phase must succeed and both processes must exit cleanly.
func driveClean(t *testing.T, server string, extra ...string) *vm.Proc {
	t.Helper()
	client := apps.AvailClientName(server)
	sys := loadApps(t, append([]string{server, client}, extra...)...)
	for p, data := range apps.WWWFiles() {
		sys.Kernel().AddFile(p, data)
	}
	proc, err := sys.Spawn(client, vm.SpawnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(2_000_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if proc.Status.Signal != 0 || proc.Status.Code != 0 {
		t.Fatalf("client status = %+v", proc.Status)
	}
	if done := readAvail(t, proc, client, "av_done"); done != 1 {
		t.Fatalf("av_done = %d", done)
	}
	total := int32(apps.AvailWarm + apps.AvailSteady + apps.AvailPost)
	ok := readAvail(t, proc, client, "av_warm_ok") +
		readAvail(t, proc, client, "av_steady_ok") +
		readAvail(t, proc, client, "av_post_ok")
	if ok != total {
		t.Errorf("clean run served %d/%d requests", ok, total)
	}
	fails := readAvail(t, proc, client, "av_warm_fail") +
		readAvail(t, proc, client, "av_steady_fail") +
		readAvail(t, proc, client, "av_post_fail") +
		readAvail(t, proc, client, "av_tail_fail") +
		readAvail(t, proc, client, "av_warm_err") +
		readAvail(t, proc, client, "av_steady_err") +
		readAvail(t, proc, client, "av_post_err")
	if fails != 0 {
		t.Errorf("clean run failed %d requests", fails)
	}
	// Every process (client, server, workers) must have exited.
	for _, p := range sys.Procs() {
		if !p.Exited {
			t.Errorf("pid %d did not exit", p.ID)
		}
	}
	return proc
}

func TestAvailClientMinidbCleanRun(t *testing.T) {
	p := driveClean(t, "minidb")
	_ = p
}

func TestAvailClientMinidbNRCleanRun(t *testing.T) {
	driveClean(t, "minidb-nr")
}

func TestAvailClientHttpdMPCleanRun(t *testing.T) {
	driveClean(t, "httpd-mp", "httpdw")
}

func TestAvailClientHttpdCleanRun(t *testing.T) {
	driveClean(t, "httpd")
}
