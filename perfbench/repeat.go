package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// repeatRecord holds the quantities that are deterministic for a seed: the
// virtual clock, result digests, counts, byte volumes and placement.  Any
// difference between two observations, in one run or across runs of the
// same binary, is a determinism bug and fails the run.
type repeatRecord struct {
	Chain             chainFacts `json:"chain"`
	PublishDeltaBytes []int64    `json:"publish_delta_bytes"`
	seen              bool
}

// chainFacts are the deterministic outputs of one pipeline run.
type chainFacts struct {
	MineVirtualS     float64 `json:"mine_virtual_s"`
	ResultSHA        string  `json:"result_sha256"`
	Shape            shape   `json:"shape"`
	StoreBytes       int64   `json:"txstore_bytes"`
	PublishFullBytes int64   `json:"publish_full_bytes"`
	Placement        string  `json:"placement"`
}

func (rr *repeatRecord) observe(got chainFacts) error {
	if !rr.seen {
		rr.Chain, rr.seen = got, true
		return nil
	}
	if rr.Chain != got {
		return fmt.Errorf("deterministic quantities changed between pipeline runs: %+v then %+v", rr.Chain, got)
	}
	return nil
}

// gate compares this run's record with the one an earlier run of the same
// binary and seed left in workdir, or leaves one for later runs.
func (rr *repeatRecord) gate(workdir, workload string, seed int64) error {
	bin, err := binaryDigest()
	if err != nil {
		return err
	}
	path := filepath.Join(workdir, fmt.Sprintf("repeat-%s-%d-%s.json", workload, seed, bin[:16]))
	mine, err := json.Marshal(rr)
	if err != nil {
		return err
	}
	prev, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return os.WriteFile(path, mine, 0o644)
	}
	if err != nil {
		return err
	}
	if !bytes.Equal(prev, mine) {
		return fmt.Errorf("determinism: seed %d reproduced different quantities\n  before: %s\n  now:    %s", seed, prev, mine)
	}
	return nil
}

// binaryDigest identifies the code under test, so records of one build are
// never compared with another's.
func binaryDigest() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
