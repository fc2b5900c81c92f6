package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// This file checks outputs. Every rep is checked for a clean exit,
// well-formed trees and agreement with the other reps of its instance;
// seeds present in reference.json are additionally held to the pinned
// likelihoods and topologies. A failed check is a failed op, never a
// silent pass.

// outcome is what one analysis produced, in the form it is compared.
type outcome struct {
	// LnL is the best log-likelihood as printed ("" when the analysis
	// reports none).
	LnL string `json:"lnl,omitempty"`
	// Files maps an output file (by RAxML_ prefix) to the SHA-256 of
	// its contents; Topology hashes the same files with branch lengths
	// stripped, which is what the reference pins, so a later change to
	// floating-point summation order does not invalidate it.
	Files    map[string]string `json:"-"`
	Topology map[string]string `json:"topology"`
}

var (
	bestLnLRe   = regexp.MustCompile(`(?m)^Best log-likelihood:\s+(-?[0-9.]+)`)
	finalLnLRe  = regexp.MustCompile(`(?m)^Final log-likelihood:\s+(-?[0-9.]+)`)
	branchLenRe = regexp.MustCompile(`:[0-9.eE+-]+`)
	performedRe = regexp.MustCompile(`bootstraps specified: (\d+)\s+performed: (\d+)`)
)

// referenceRel is how far a best log-likelihood may sit from its pin.
const referenceRel = 1e-9

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// checkTrees verifies that every line of a Newick file is a complete
// tree over taxa leaves.
func checkTrees(data []byte, taxa, wantTrees int) error {
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if wantTrees > 0 && len(lines) != wantTrees {
		return fmt.Errorf("%d trees, want %d", len(lines), wantTrees)
	}
	for _, l := range lines {
		if !strings.HasSuffix(l, ";") || strings.Count(l, "(") != strings.Count(l, ")") {
			return fmt.Errorf("malformed Newick %.40q", l)
		}
		if n := strings.Count(l, "taxon"); n != taxa {
			return fmt.Errorf("tree has %d of %d taxa", n, taxa)
		}
	}
	return nil
}

// readOutcome collects the outputs of one finished rep.
func readOutcome(w *workloadDef, dir, run string, stdout []byte) (*outcome, error) {
	o := &outcome{Files: map[string]string{}, Topology: map[string]string{}}
	if w.HasBest {
		m := bestLnLRe.FindSubmatch(stdout)
		if m == nil {
			return nil, fmt.Errorf("no best log-likelihood on stdout")
		}
		o.LnL = string(m[1])
		if v, err := strconv.ParseFloat(o.LnL, 64); err != nil || !(v < 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("implausible log-likelihood %q", o.LnL)
		}
	}
	for _, name := range w.Files {
		data, err := os.ReadFile(fmt.Sprintf("%s/%s.%s", dir, name, run))
		if err != nil {
			return nil, err
		}
		want := 1
		if name == "RAxML_bootstrap" {
			want = gridReplicates
		}
		if err := checkTrees(data, w.Input.Taxa, want); err != nil {
			return nil, fmt.Errorf("%s: %v", name, err)
		}
		o.Files[name] = sha(data)
		o.Topology[name] = sha(branchLenRe.ReplaceAll(data, nil))
	}
	return o, nil
}

// sameAs compares two outcomes of one instance: reps must agree exactly.
func (o *outcome) sameAs(first *outcome) error {
	if o.LnL != first.LnL {
		return fmt.Errorf("log-likelihood %s differs from the first rep's %s", o.LnL, first.LnL)
	}
	for name, h := range first.Files {
		if o.Files[name] != h {
			return fmt.Errorf("%s differs from the first rep's", name)
		}
	}
	return nil
}

// matches holds an outcome to its pinned reference.
func (o *outcome) matches(ref *outcome) error {
	if ref.LnL != "" {
		got, _ := strconv.ParseFloat(o.LnL, 64)
		want, _ := strconv.ParseFloat(ref.LnL, 64)
		if math.Abs(got-want) > referenceRel*math.Abs(want) {
			return fmt.Errorf("log-likelihood %s, reference %s", o.LnL, ref.LnL)
		}
	}
	for name, h := range ref.Topology {
		if o.Topology[name] != h {
			return fmt.Errorf("%s topology differs from the reference", name)
		}
	}
	return nil
}

// reference is bench/reference.json: workload -> seed -> one outcome
// per instance (serve_mix: the one sampled submission).
type reference map[string]map[string][]*outcome

const referencePath = "bench/reference.json"

func loadReference() reference {
	ref := reference{}
	data, err := os.ReadFile(referencePath)
	if err == nil {
		err = json.Unmarshal(data, &ref)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: no usable %s (%v); pinned checks skipped\n", referencePath, err)
	}
	return ref
}

func (r reference) lookup(workload string, seed int64) []*outcome {
	return r[workload][strconv.FormatInt(seed, 10)]
}

func (r reference) set(workload string, seed int64, outs []*outcome) {
	if r[workload] == nil {
		r[workload] = map[string][]*outcome{}
	}
	r[workload][strconv.FormatInt(seed, 10)] = outs
}

func (r reference) save() error {
	data, err := json.MarshalIndent(r, "", "")
	if err != nil {
		return err
	}
	return os.WriteFile(referencePath, append(data, '\n'), 0o644)
}
