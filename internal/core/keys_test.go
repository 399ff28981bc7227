package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"lfi/internal/apps"
	"lfi/internal/core"
	"lfi/internal/profile"
)

// keyProfiles is a fixed profile set for the key-stability test: two
// libraries listed out of order, a function without error codes, errno
// side effects stored direct, negated and unnamed, and a side effect
// that is not an errno.
func keyProfiles() profile.Set {
	tls := func(v int32, op string) profile.SideEffect {
		return profile.SideEffect{Type: profile.SideEffectTLS, Module: "libz.so", Op: op, Value: v}
	}
	return profile.Set{
		"libz.so": &profile.Profile{Library: "libz.so", Functions: []profile.Function{
			{Name: "zopen", ErrorCodes: []profile.ErrorCode{
				{Retval: -1, SideEffects: []profile.SideEffect{tls(-2, "neg")}},
				{Retval: -1, SideEffects: []profile.SideEffect{tls(13, "")}},
			}},
			{Name: "zflush"},
			{Name: "zread", ErrorCodes: []profile.ErrorCode{
				{Retval: 0},
				{Retval: -1, SideEffects: []profile.SideEffect{tls(4242, "")}},
			}},
		}},
		"liba.so": &profile.Profile{Library: "liba.so", Functions: []profile.Function{
			{Name: "a_alloc", ErrorCodes: []profile.ErrorCode{
				{Retval: 0, SideEffects: []profile.SideEffect{
					{Type: profile.SideEffectGlobal, Module: "liba.so", Offset: 8, Value: 1},
					tls(12, ""),
				}},
			}},
		}},
	}
}

// TestExperimentKeysStable pins every matrix generator's ordered
// experiment keys. Campaign stores resume by key, so a generator that
// reorders its plan or changes one key strands every store written
// before it.
func TestExperimentKeysStable(t *testing.T) {
	set := keyProfiles()
	for _, tc := range []struct {
		name   string
		exps   []core.Experiment
		n      int
		digest string
	}{
		{"PlanExperiments", core.PlanExperiments(set), 5, "14551000c746ce44"},
		{"DegradationExperiments", core.DegradationExperiments(set), 12, "7a9f5e50e5e14210"},
		{"AvailabilityExperiments", core.AvailabilityExperiments(set, apps.AvailAfter), 21, "89e2c2c9f4c4f9e9"},
	} {
		keys := make([]string, len(tc.exps))
		for i := range tc.exps {
			keys[i] = tc.exps[i].Key()
		}
		sum := sha256.Sum256([]byte(strings.Join(keys, "\n")))
		if got := hex.EncodeToString(sum[:8]); len(keys) != tc.n || got != tc.digest {
			t.Errorf("%s: %d keys, digest %s; want %d, %s\n%s",
				tc.name, len(keys), got, tc.n, tc.digest, strings.Join(keys, "\n"))
		}
	}
}
