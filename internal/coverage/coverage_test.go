package coverage_test

import (
	"testing"

	"lfi/internal/asm"
	"lfi/internal/coverage"
	"lfi/internal/obj"
	"lfi/internal/vm"
)

// branchy has one function where a branch decides which of two blocks
// runs, plus a never-called function.
const branchy = `
.exe a
.global main
.global dead
.func main
  cmp r1, 0
  jne .skip
  mov r0, 1
.skip:
  ret
.func dead
  cmp r1, 0
  je .x
  mov r0, 2
.x:
  ret
`

func runCovered(t *testing.T) *vm.Image {
	t.Helper()
	f, err := asm.Assemble("t.s", branchy)
	if err != nil {
		t.Fatal(err)
	}
	sys := vm.NewSystem(vm.Options{Coverage: true})
	sys.Register(f)
	p, err := sys.Spawn("a", vm.SpawnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	im, ok := p.ImageByName("a")
	if !ok {
		t.Fatal("image missing")
	}
	return im
}

func TestReportCountsBlocks(t *testing.T) {
	im := runCovered(t)
	mc, err := coverage.MergeBits(im.File, []*vm.Image{im})
	if err != nil {
		t.Fatal(err)
	}
	if mc.Module != "a" {
		t.Errorf("module = %q", mc.Module)
	}
	var mainCov, deadCov coverage.FuncCoverage
	for _, fc := range mc.Funcs {
		switch fc.Name {
		case "main":
			mainCov = fc
		case "dead":
			deadCov = fc
		}
	}
	// main: 3 blocks (cond, then, join), all executed (r1=0 -> then).
	if mainCov.Total != 3 || mainCov.Covered != 3 {
		t.Errorf("main coverage = %d/%d", mainCov.Covered, mainCov.Total)
	}
	if deadCov.Total != 3 || deadCov.Covered != 0 {
		t.Errorf("dead coverage = %d/%d", deadCov.Covered, deadCov.Total)
	}
	if mc.Total != 6 || mc.Covered != 3 {
		t.Errorf("module coverage = %d/%d", mc.Covered, mc.Total)
	}
	if mc.Fraction() != 0.5 {
		t.Errorf("fraction = %v", mc.Fraction())
	}
	if mc.String() == "" {
		t.Error("empty summary")
	}
}

func TestMergeBitsUnion(t *testing.T) {
	f, err := asm.Assemble("t.s", branchy)
	if err != nil {
		t.Fatal(err)
	}
	// Run twice with different branch outcomes by poking R1 via distinct
	// entry wrappers is overkill; simpler: one covered image and one
	// fresh (uncovered) image — union must equal the covered one.
	im1 := runCovered(t)
	sys := vm.NewSystem(vm.Options{Coverage: true})
	sys.Register(f)
	p, err := sys.Spawn("a", vm.SpawnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	im2, _ := p.ImageByName("a")
	union, err := coverage.MergeBits(f, []*vm.Image{im1, im2})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := coverage.MergeBits(f, []*vm.Image{im1})
	if err != nil {
		t.Fatal(err)
	}
	if union.Covered != solo.Covered || union.Total != solo.Total {
		t.Errorf("union = %d/%d, solo = %d/%d",
			union.Covered, union.Total, solo.Covered, solo.Total)
	}
}

func TestModuleCoverageFraction(t *testing.T) {
	if (coverage.ModuleCoverage{Total: 0}).Fraction() != 1 {
		t.Error("an empty module should count as fully covered")
	}
	if (coverage.ModuleCoverage{Total: 4, Covered: 1}).Fraction() != 0.25 {
		t.Error("fraction arithmetic")
	}
}

func TestUncoveredWithoutCoverageOption(t *testing.T) {
	f, err := asm.Assemble("t.s", branchy)
	if err != nil {
		t.Fatal(err)
	}
	sys := vm.NewSystem(vm.Options{}) // coverage off
	sys.Register(f)
	p, err := sys.Spawn("a", vm.SpawnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	im, _ := p.ImageByName("a")
	mc, err := coverage.MergeBits(im.File, []*vm.Image{im})
	if err != nil {
		t.Fatal(err)
	}
	if mc.Covered != 0 {
		t.Errorf("coverage disabled but covered = %d", mc.Covered)
	}
	_ = obj.Library
}
