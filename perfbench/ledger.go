package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// ledger fingerprints the exact counts a run observes (re-probes per
// edit, probes per saturation, simulator events, response sizes), one
// hash per block, and compares them with earlier runs of the same binary,
// workload, seed and mode. Blocks have fixed op counts, so block b covers
// the same ops in every run. A mismatch is an error, not a number.
type ledger struct {
	Inputs string   `json:"inputs"` // digest of block 0's inputs
	Blocks []string `json:"blocks"`

	cur, in uint64
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

func newLedger() *ledger { return &ledger{cur: fnvOffset, in: fnvOffset} }

func mix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// note folds one exact count into the current block's fingerprint.
func (l *ledger) note(v uint64) { l.cur = mix(l.cur, v) }

// input folds one input value into the corpus digest.
func (l *ledger) input(v uint64) { l.in = mix(l.in, v) }

// inputBytes folds input bytes into the corpus digest.
func (l *ledger) inputBytes(b []byte) {
	for _, x := range b {
		l.in ^= uint64(x)
		l.in *= fnvPrime
	}
}

func (l *ledger) endBlock() {
	if len(l.Blocks) == 0 {
		l.Inputs = fmt.Sprintf("%016x", l.in)
	}
	l.Blocks = append(l.Blocks, fmt.Sprintf("%016x", l.cur))
	l.cur = fnvOffset
}

// exeDigest identifies the running binary, so ledgers of different
// program builds are never compared.
func exeDigest() (string, error) {
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
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// ledgerCheck is the outcome of comparing one run's ledger with the
// stored ones: the blocks whose counts differ from an earlier run of the
// same seed, and the seeds whose corpus equals this run's.
type ledgerCheck struct {
	badBlocks []int
	sameSeeds []string
}

// reconcile compares l with the ledgers stored under dir for workload and
// mode, then stores l (keeping the longer of l and the stored one of its
// own seed).
func (l *ledger) reconcile(dir, workload string, seed int64, mode string) (ledgerCheck, error) {
	var out ledgerCheck
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return out, err
	}
	prefix := workload + "-" + mode + "-"
	own := filepath.Join(dir, fmt.Sprintf("%s%d.json", prefix, seed))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return out, err
	}
	keep := l
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".json") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return out, err
		}
		var old ledger
		if err := json.Unmarshal(b, &old); err != nil {
			return out, fmt.Errorf("ledger %s: %w", name, err)
		}
		if filepath.Join(dir, name) != own {
			if old.Inputs == l.Inputs {
				out.sameSeeds = append(out.sameSeeds, strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".json"))
			}
			continue
		}
		for i := 0; i < len(l.Blocks) && i < len(old.Blocks); i++ {
			if l.Blocks[i] != old.Blocks[i] {
				out.badBlocks = append(out.badBlocks, i)
			}
		}
		if len(old.Blocks) > len(l.Blocks) {
			keep = &old
		}
	}
	b, err := json.Marshal(keep)
	if err != nil {
		return out, err
	}
	tmp := own + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return out, err
	}
	return out, os.Rename(tmp, own)
}
