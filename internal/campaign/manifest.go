package campaign

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"

	"lfi/internal/core"
	"lfi/internal/vm"
)

// ManifestFile is the campaign-identity file inside a store directory.
const ManifestFile = "manifest.json"

// Manifest pins a store to the campaign that filled it. Experiment keys
// identify faultloads, not targets: the same profile swept over two
// different binaries (or under two different budgets) produces matching
// keys with different truths, so without this check a -resume against
// the wrong store would silently assemble one target's report from
// another target's cached outcomes. Sweep writes the manifest on the
// store's first use and refuses a store whose manifest disagrees.
//
// The executor (production snapshot restores or the fresh-spawn
// oracle) and the worker count are deliberately absent: both executors
// run the same guest, so their records — cycles, injection-log digest
// and coverage included — are equal key by key and interchangeable.
type Manifest struct {
	// Executable is the campaign's target program name.
	Executable string `json:"executable"`
	// ProgramsDigest hashes the encoded bytes of every program image
	// (executable and libraries), order-independent.
	ProgramsDigest string `json:"programs_digest"`
	// Engine is the VM execution engine the records were produced on.
	Engine string `json:"engine"`
	// Budget is the per-run cycle budget (normalised: 0 is recorded as
	// core.DefaultSweepBudget, matching the executor).
	Budget uint64 `json:"budget"`
}

// manifestFor derives the campaign identity the store must match.
func manifestFor(cfg core.CampaignConfig, budget uint64) Manifest {
	if budget == 0 {
		budget = core.DefaultSweepBudget
	}
	engine := cfg.VM.Engine
	if engine == "" {
		engine = vm.DefaultEngine
	}
	// Digest program images by name so registration order is identity-
	// irrelevant (it is load-order-relevant only per spawn, which the
	// executable's needs/preload lists pin independently).
	names := make([]string, 0, len(cfg.Programs))
	byName := make(map[string][]byte, len(cfg.Programs))
	for _, f := range cfg.Programs {
		names = append(names, f.Name)
		byName[f.Name] = f.Encode()
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, n := range names {
		h.Write([]byte(n))
		h.Write([]byte{0})
		h.Write(byName[n])
	}
	return Manifest{
		Executable:     cfg.Executable,
		ProgramsDigest: fmt.Sprintf("%016x", h.Sum64()),
		Engine:         engine,
		Budget:         budget,
	}
}

// EnsureManifest claims the store for the given campaign: on a fresh
// store the manifest is written; on an existing one it must match, or
// the store belongs to a different campaign and resuming from (or
// appending to) it would mix incompatible results.
func (s *Store) EnsureManifest(m Manifest) error {
	path := filepath.Join(s.dir, ManifestFile)
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		blob, merr := json.MarshalIndent(m, "", "  ")
		if merr != nil {
			return fmt.Errorf("campaign: %w", merr)
		}
		if werr := os.WriteFile(path, append(blob, '\n'), 0o644); werr != nil {
			return fmt.Errorf("campaign: %w", werr)
		}
		return nil
	case err != nil:
		return fmt.Errorf("campaign: %w", err)
	}
	var have Manifest
	if err := json.Unmarshal(data, &have); err != nil {
		return fmt.Errorf("campaign: %s: corrupt manifest: %v", path, err)
	}
	if have != m {
		return fmt.Errorf("campaign: store %s belongs to a different campaign: has %+v, this sweep is %+v (use a fresh -store directory)",
			s.dir, have, m)
	}
	return nil
}
