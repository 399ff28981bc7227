package scenario

import (
	"encoding/xml"
	"fmt"
	"strconv"
	"strings"
)

// Condition element names of the trigger grammar.
const (
	condAnd        = "and"
	condOr         = "or"
	condNot        = "not"
	condCalls      = "calls"
	condCycles     = "cycles"
	condPid        = "pid"
	condProb       = "probability"
	condStack      = "stacktrace"
	condAfterFault = "after-fault"
)

// Cond is one node of a trigger's composable condition tree. A trigger
// may carry any number of condition elements as direct children of its
// <function> element; they are ANDed with each other and with the flat
// trigger attributes (inject, probability, pid, <stacktrace>).
//
// Containers:
//
//	<and> c1 c2 ... </and>   all children hold (evaluated in order)
//	<or>  c1 c2 ... </or>    any child holds (short-circuits in order)
//	<not> c </not>           exactly one child, negated
//
// Leaves:
//
//	<calls after="3" every="2" until="9"/>  call-count window: calls
//	    after the first `after` ones, every `every`-th of them, up to
//	    call `until` (0 = open-ended)
//	<cycles min="1000" max="90000"/>        virtual-cycle window of the
//	    intercepted process at call time
//	<pid is="2"/>                           process id equals `is`
//	<probability pct="12.5"/>               independent biased coin
//	<stacktrace><frame>f</frame>...</stacktrace>  partial backtrace
//	    matches, innermost frame first (symbol or 0x-address)
//	<after-fault function="malloc" count="2"/>    cross-trigger state:
//	    at least `count` (default 1) faults have already been injected
//	    into the named function in this process
//
// Container children that consume randomness (<probability>) draw from
// the evaluator's seeded stream in evaluation order, so composed
// conditions remain deterministic per Plan.Seed.
type Cond struct {
	XMLName xml.Name
	// Function and Count belong to <after-fault>. Count 0 means the
	// default of 1 prior fault (XML cannot distinguish an absent count
	// attribute from an explicit zero).
	Function string `xml:"function,attr,omitempty"`
	Count    int32  `xml:"count,attr,omitempty"`
	// After, Every and Until belong to <calls>.
	After int32 `xml:"after,attr,omitempty"`
	Every int32 `xml:"every,attr,omitempty"`
	Until int32 `xml:"until,attr,omitempty"`
	// Min and Max belong to <cycles>.
	Min uint64 `xml:"min,attr,omitempty"`
	Max uint64 `xml:"max,attr,omitempty"`
	// Is belongs to <pid>.
	Is int `xml:"is,attr,omitempty"`
	// Pct belongs to <probability>.
	Pct float64 `xml:"pct,attr,omitempty"`
	// Frames belong to <stacktrace>.
	Frames []string `xml:"frame"`
	// Kids are the children of <and>, <or> and <not>.
	Kids []Cond `xml:",any"`
}

// Calls builds a <calls> call-count window (0 leaves a bound open).
func Calls(after, every, until int32) Cond {
	return Cond{XMLName: condName(condCalls), After: after, Every: every, Until: until}
}

// AfterFault builds an <after-fault> condition on one prior fault.
func AfterFault(function string) Cond {
	return Cond{XMLName: condName(condAfterFault), Function: function}
}

func condName(local string) xml.Name { return xml.Name{Local: local} }

// clone deep-copies the condition tree.
func (c Cond) clone() Cond {
	if c.Frames != nil {
		c.Frames = append([]string(nil), c.Frames...)
	}
	if c.Kids != nil {
		kids := make([]Cond, len(c.Kids))
		for i, k := range c.Kids {
			kids[i] = k.clone()
		}
		c.Kids = kids
	}
	return c
}

// extraAttrs reports whether the node carries attributes that do not
// belong to its element kind; zero clears the kind's own attributes.
func (c *Cond) extraAttrs(zero func(*Cond)) bool {
	d := *c
	zero(&d)
	return d.Function != "" || d.Count != 0 || d.After != 0 || d.Every != 0 ||
		d.Until != 0 || d.Min != 0 || d.Max != 0 || d.Is != 0 || d.Pct != 0
}

// validate checks one condition node (recursively) at parse time.
func (c *Cond) validate() error {
	name := c.XMLName.Local
	container := name == condAnd || name == condOr || name == condNot
	if !container {
		if len(c.Kids) > 0 {
			return fmt.Errorf("<%s> cannot contain nested conditions", name)
		}
	}
	if name != condStack && len(c.Frames) > 0 {
		return fmt.Errorf("<%s> cannot contain <frame> elements", name)
	}
	switch name {
	case condAnd, condOr:
		if c.extraAttrs(func(*Cond) {}) {
			return fmt.Errorf("<%s> takes no attributes", name)
		}
		if len(c.Kids) == 0 {
			return fmt.Errorf("<%s> needs at least one child condition", name)
		}
	case condNot:
		if c.extraAttrs(func(*Cond) {}) {
			return fmt.Errorf("<not> takes no attributes")
		}
		if len(c.Kids) != 1 {
			return fmt.Errorf("<not> needs exactly one child condition, has %d", len(c.Kids))
		}
	case condCalls:
		if c.extraAttrs(func(d *Cond) { d.After, d.Every, d.Until = 0, 0, 0 }) {
			return fmt.Errorf("<calls> takes only after, every and until attributes")
		}
		if c.After < 0 || c.Every < 0 || c.Until < 0 {
			return fmt.Errorf("<calls> window bounds must be non-negative")
		}
		if c.After == 0 && c.Every == 0 && c.Until == 0 {
			return fmt.Errorf("<calls> needs at least one of after, every, until")
		}
		if c.Until > 0 && c.Until <= c.After {
			return fmt.Errorf("<calls> until=%d never exceeds after=%d: the window is empty", c.Until, c.After)
		}
	case condCycles:
		if c.extraAttrs(func(d *Cond) { d.Min, d.Max = 0, 0 }) {
			return fmt.Errorf("<cycles> takes only min and max attributes")
		}
		if c.Min == 0 && c.Max == 0 {
			return fmt.Errorf("<cycles> needs min and/or max")
		}
		if c.Max > 0 && c.Max < c.Min {
			return fmt.Errorf("<cycles> max=%d below min=%d: the window is empty", c.Max, c.Min)
		}
	case condPid:
		if c.extraAttrs(func(d *Cond) { d.Is = 0 }) {
			return fmt.Errorf("<pid> takes only the is attribute")
		}
		if c.Is == 0 {
			return fmt.Errorf(`<pid> needs is="<pid>"`)
		}
	case condProb:
		if c.extraAttrs(func(d *Cond) { d.Pct = 0 }) {
			return fmt.Errorf("<probability> takes only the pct attribute")
		}
		if !(c.Pct > 0 && c.Pct <= 100) {
			return fmt.Errorf("<probability> pct=%v outside (0, 100]", c.Pct)
		}
	case condStack:
		if c.extraAttrs(func(*Cond) {}) {
			return fmt.Errorf("<stacktrace> takes no attributes")
		}
		if len(c.Frames) == 0 {
			return fmt.Errorf("<stacktrace> condition needs at least one <frame>")
		}
		if err := validateFrames(c.Frames); err != nil {
			return err
		}
	case condAfterFault:
		if c.extraAttrs(func(d *Cond) { d.Function, d.Count = "", 0 }) {
			return fmt.Errorf("<after-fault> takes only function and count attributes")
		}
		if c.Function == "" {
			return fmt.Errorf(`<after-fault> needs function="<name>"`)
		}
		if c.Count < 0 {
			return fmt.Errorf("<after-fault> count=%d must be non-negative", c.Count)
		}
	default:
		return fmt.Errorf("unknown condition element <%s>", name)
	}
	for i := range c.Kids {
		if err := c.Kids[i].validate(); err != nil {
			return err
		}
	}
	return nil
}

// validateFrames checks that every 0x-prefixed frame is a parseable
// 32-bit address; symbolic frames are free-form.
func validateFrames(frames []string) error {
	for _, w := range frames {
		if strings.HasPrefix(w, "0x") || strings.HasPrefix(w, "0X") {
			if _, err := strconv.ParseUint(w[2:], 16, 32); err != nil {
				return fmt.Errorf("bad stack frame address %q: %v", w, err)
			}
		}
	}
	return nil
}

// walk visits the node and all descendants.
func (c *Cond) walk(visit func(*Cond)) {
	visit(c)
	for i := range c.Kids {
		c.Kids[i].walk(visit)
	}
}
