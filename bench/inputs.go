package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strconv"
)

// This file turns a run seed into inputs. Everything here is a pure
// function of its arguments: the same seed gives the same alignments,
// the same -p/-x pairs and the same submission script.

// splitmix64 is the benchmark's own generator, so pinned references do
// not depend on a library's random sequence.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

func (s *splitmix64) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// derive maps (seed, stream label, index) to a positive 31-bit value,
// usable as a raxml -p/-x seed or as a permutation seed.
func derive(seed int64, stream string, index int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, index)
	s := splitmix64(h.Sum64())
	return int64(s.next()%2147483646) + 1
}

// instance is one (-p, -x) pair of a process workload.
type instance struct{ P, X int64 }

func instancesFor(workload string, seed int64) []instance {
	out := make([]instance, instancesPerRun)
	for k := range out {
		out[k] = instance{derive(seed, workload+"/p", k), derive(seed, workload+"/x", k)}
	}
	return out
}

// alignment is a sequential PHYLIP file in memory.
type alignment struct {
	Names []string
	Seqs  [][]byte
}

func parsePhylip(data []byte) (*alignment, error) {
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	head := bytes.Fields(lines[0])
	if len(head) != 2 {
		return nil, fmt.Errorf("phylip: bad header %q", lines[0])
	}
	taxa, err1 := strconv.Atoi(string(head[0]))
	chars, err2 := strconv.Atoi(string(head[1]))
	if err1 != nil || err2 != nil || len(lines) != taxa+1 {
		return nil, fmt.Errorf("phylip: header %q does not match %d sequence lines", lines[0], len(lines)-1)
	}
	a := &alignment{}
	for _, l := range lines[1:] {
		f := bytes.Fields(l)
		if len(f) != 2 || len(f[1]) != chars {
			return nil, fmt.Errorf("phylip: bad sequence line for %d characters", chars)
		}
		a.Names = append(a.Names, string(f[0]))
		a.Seqs = append(a.Seqs, f[1])
	}
	return a, nil
}

func (a *alignment) bytes() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%d %d\n", len(a.Names), len(a.Seqs[0]))
	for i, n := range a.Names {
		fmt.Fprintf(&b, "%s %s\n", n, a.Seqs[i])
	}
	return b.Bytes()
}

// permuted returns the alignment with its rows and columns shuffled by
// permSeed. Site patterns, their weights and every likelihood are
// unchanged; the pattern order, the taxon order and therefore every
// seeded decision of the analysis differ.
func (a *alignment) permuted(permSeed int64) *alignment {
	rng := splitmix64(permSeed)
	rows := rng.perm(len(a.Names))
	cols := rng.perm(len(a.Seqs[0]))
	out := &alignment{Names: make([]string, len(rows)), Seqs: make([][]byte, len(rows))}
	for i, r := range rows {
		out.Names[i] = a.Names[r]
		seq := make([]byte, len(cols))
		for j, c := range cols {
			seq[j] = a.Seqs[r][c]
		}
		out.Seqs[i] = seq
	}
	return out
}

// submission is one scripted POST /v1/runs of the serve_mix workload.
type submission struct {
	Tenant string
	// Kind is cold (first sight of the alignment), warm (same
	// alignment and -p, new -x) or dup (identical to the previous
	// submission; the server must answer 200 with X-Raxml-Dedup: hit).
	Kind string
	// Base indexes the tiny alignment; Variant seeds its permutation,
	// so a cold submission is content the server has never hashed.
	Base    int
	Variant int64
	P, X    int64
}

var tenants = []string{"alice", "bob"}

const (
	serveStarts     = 1
	serveBootstraps = 5
)

// passScript returns, per tenant, the submissions of one pass. Each
// tenant keeps one submission outstanding and walks its list in order;
// the pass index is folded into every seed, so no pass repeats work an
// earlier pass left in the server's caches.
func passScript(seed int64, pass int) [][]submission {
	out := make([][]submission, len(tenants))
	for t, tenant := range tenants {
		for base := range inputsTiny {
			label := fmt.Sprintf("serve/%d/%s", pass, tenant)
			v := derive(seed, label+"/variant", base)
			p := derive(seed, label+"/p", base)
			x1 := derive(seed, label+"/x1", base)
			x2 := derive(seed, label+"/x2", base)
			out[t] = append(out[t],
				submission{tenant, "cold", base, v, p, x1},
				submission{tenant, "warm", base, v, p, x2},
				submission{tenant, "dup", base, v, p, x2})
		}
	}
	return out
}
