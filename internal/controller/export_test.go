package controller

import (
	"lfi/internal/profile"
	"lfi/internal/scenario"
)

// NewForPlan compiles plan against set and binds it to a stub set
// synthesised for exactly the functions it names: the surface a
// one-faultload campaign preloads. Spawn with
// []string{StubLibName} after Install.
func NewForPlan(set profile.Set, plan *scenario.Plan) (*Controller, error) {
	cp, err := scenario.Compile(plan, set)
	if err != nil {
		return nil, err
	}
	ss, err := NewStubSet(cp.Functions())
	if err != nil {
		return nil, err
	}
	return NewWithStubs(ss, cp), nil
}
