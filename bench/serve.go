package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// This file drives the serve_mix workload over the server's HTTP API:
// scripted tenants, one outstanding submission each, completion awaited
// on the SSE end frame.

var httpClient = &http.Client{Timeout: 30 * time.Second}

// subRecord is what the client saw of one submission.
type subRecord struct {
	submission
	ID        string
	PostMS    float64 // POST /v1/runs round trip
	TurnMS    float64 // POST sent to SSE end frame
	QueueMS   float64 // submitted_at to started_at, from the run record
	Alignment []byte
	Err       error
}

// runStatus is the part of the run record the client reads.
type runStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Submitted string `json:"submitted_at"`
	Started   string `json:"started_at"`
}

// submit posts one scripted submission and waits for its run to end.
func submit(base string, sub submission, align []byte) (rec subRecord) {
	rec = subRecord{submission: sub, Alignment: align}
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	fw, _ := mw.CreateFormFile("alignment", "alignment.phy")
	fw.Write(align)
	for k, v := range map[string]string{
		"starts": strconv.Itoa(serveStarts), "bootstraps": strconv.Itoa(serveBootstraps), "batch": strconv.Itoa(serveBootstraps),
		"seed_p": strconv.FormatInt(sub.P, 10), "seed_x": strconv.FormatInt(sub.X, 10),
	} {
		mw.WriteField(k, v)
	}
	mw.Close()
	req, _ := http.NewRequest("POST", base+"/v1/runs", &body)
	req.Header.Set("Content-Type", mw.FormDataContentType())
	req.Header.Set("X-API-Key", sub.Tenant)

	start := time.Now()
	resp, err := httpClient.Do(req)
	if err != nil {
		rec.Err = err
		return rec
	}
	var st runStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	rec.PostMS = msSince(start)
	rec.ID = st.ID
	wantCode, wantDedup := http.StatusAccepted, ""
	if sub.Kind == "dup" {
		wantCode, wantDedup = http.StatusOK, "hit"
	}
	switch {
	case err != nil:
		rec.Err = fmt.Errorf("decoding the run record: %v", err)
	case resp.StatusCode != wantCode:
		rec.Err = fmt.Errorf("%s submission answered %d, want %d", sub.Kind, resp.StatusCode, wantCode)
	case resp.Header.Get("X-Raxml-Dedup") != wantDedup:
		rec.Err = fmt.Errorf("%s submission has X-Raxml-Dedup %q, want %q", sub.Kind, resp.Header.Get("X-Raxml-Dedup"), wantDedup)
	}
	if rec.Err != nil {
		return rec
	}
	if err := awaitEnd(base, st.ID); err != nil {
		rec.Err = err
		return rec
	}
	rec.TurnMS = msSince(start)

	resp, err = httpClient.Get(base + "/v1/runs/" + st.ID)
	if err != nil {
		rec.Err = err
		return rec
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || st.State != "done" {
		rec.Err = fmt.Errorf("run %s ended in state %q (%v)", st.ID, st.State, err)
		return rec
	}
	t0, err0 := time.Parse(time.RFC3339Nano, st.Submitted)
	t1, err1 := time.Parse(time.RFC3339Nano, st.Started)
	if err0 == nil && err1 == nil {
		rec.QueueMS = float64(t1.Sub(t0).Nanoseconds()) / 1e6
	}
	return rec
}

// awaitEnd follows a run's SSE stream until its terminal end frame.
func awaitEnd(base, id string) error {
	req, _ := http.NewRequest("GET", base+"/v1/runs/"+id+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := httpClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		if sc.Text() == "event: end" {
			return nil
		}
	}
	return fmt.Errorf("run %s: event stream closed without an end frame (%v)", id, sc.Err())
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// runPass plays one pass of the script against the server: the tenants
// run concurrently, each walking its own list. It returns every record
// and the pass makespan in seconds.
func runPass(base string, bases []*alignment, seed int64, pass int) ([]subRecord, float64) {
	script := passScript(seed, pass)
	recs := make([][]subRecord, len(script))
	var wg sync.WaitGroup
	start := time.Now()
	for t := range script {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for _, sub := range script[t] {
				align := bases[sub.Base].permuted(sub.Variant).bytes()
				recs[t] = append(recs[t], submit(base, sub, align))
			}
		}(t)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	var all []subRecord
	for _, r := range recs {
		all = append(all, r...)
	}
	return all, wall
}

// serveSession is one server's life: set-up (inputs + start until
// /healthz answers), passes until the time is used (at least
// minPasses), then a drain. It is both the serve_mix workload and, with
// a short budget, the source of the server.* per-layer metrics.
type serveSession struct {
	Setups   []float64
	Walls    []float64
	CPUs     []float64
	RSSMB    float64
	Records  []subRecord
	Stats    map[string]any
	Sampled  *subRecord // a warm submission of pass 0, checked against the CLI
	TreeBest []byte
	Err      error
}

func (b *bench) runServeSession(seed int64, seconds float64, minPasses, setups int) *serveSession {
	s := &serveSession{}
	dir := filepath.Join(b.tmp, "serve")
	defer os.RemoveAll(dir)

	var srv *server
	var bases []*alignment
	for i := 0; i < setups; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				s.Err = err
				return s
			}
			os.RemoveAll(dir)
		}
		start := time.Now()
		bases = bases[:0]
		for _, in := range inputsTiny {
			_, a, err := b.prepareInput(in, seed, filepath.Join(dir, "inputs"))
			if err != nil {
				s.Err = err
				return s
			}
			bases = append(bases, a)
		}
		var err error
		if srv, err = startServer(b.raxml(), filepath.Join(dir, "data")); err != nil {
			s.Err = err
			return s
		}
		s.Setups = append(s.Setups, time.Since(start).Seconds())
	}

	start := time.Now()
	for pass := 0; ; pass++ {
		if pass >= minPasses && time.Since(start).Seconds()+0.5*median(s.Walls) > seconds {
			break
		}
		cpu0 := srv.cpuSeconds()
		recs, wall := runPass(srv.Base, bases, seed, pass)
		s.Walls = append(s.Walls, wall)
		s.CPUs = append(s.CPUs, srv.cpuSeconds()-cpu0)
		s.Records = append(s.Records, recs...)
		// Peak RSS is read after a fixed pass, not at exit: a faster
		// server completes more passes in the same time and would
		// otherwise look like it needs more memory.
		if pass == minPasses-1 {
			s.RSSMB = srv.peakRSSMB()
		}
	}
	for i := range s.Records {
		if r := &s.Records[i]; r.Kind == "warm" && r.Err == nil {
			s.Sampled = r
			break
		}
	}
	if s.Sampled != nil {
		if resp, err := httpClient.Get(srv.Base + "/v1/runs/" + s.Sampled.ID + "/trees/best"); err == nil {
			s.TreeBest, _ = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
	}
	if resp, err := httpClient.Get(srv.Base + "/v1/stats"); err == nil {
		json.NewDecoder(resp.Body).Decode(&s.Stats)
		resp.Body.Close()
	}
	if err := srv.stop(); err != nil {
		s.Err = err
	}
	return s
}

// runServeMix reports a serve session as the serve_mix workload.
func (b *bench) runServeMix(w *workloadDef, seed int64, seconds float64) *result {
	r := &result{Workload: w.Name, Metrics: map[string]summary{}, Extra: map[string]float64{}}
	r.CalibMS[0] = calibrate()
	s := b.runServeSession(seed, seconds, servePasses, setupReps)
	r.CalibMS[1] = calibrate()
	r.Noisy = r.drift() > 0.10
	if s.Err != nil {
		r.Ops++
		r.fail("server: %v", s.Err)
	}
	for _, rec := range s.Records {
		r.Ops++
		if rec.Err != nil {
			r.fail("%s %s submission: %v", rec.Tenant, rec.Kind, rec.Err)
		}
	}
	if len(s.Walls) == 0 {
		return r
	}
	r.Metrics["setup_s"] = summarize(s.Setups)
	r.Metrics["wall_s"] = summarize(s.Walls)
	// The server's CPU time comes in 10 ms clock ticks, so a median of
	// per-pass readings is quantised to the tick; the mean per pass
	// resolves a tick spread over all the passes.
	cpu := summarize(s.CPUs)
	cpu.Value = mean(s.CPUs)
	r.Metrics["cpu_s"] = cpu
	r.Metrics["peak_rss_mb"] = summarize([]float64{s.RSSMB})

	// The sampled run's best tree must be the tree the one-shot CLI
	// writes for the same alignment and seeds (docs/server.md promises
	// byte identity), and for pinned seeds the reference topology.
	r.Ops++
	if s.Sampled == nil {
		r.fail("no warm submission finished, nothing to sample")
		return r
	}
	dir := filepath.Join(b.tmp, "serve-check")
	defer os.RemoveAll(dir)
	input := filepath.Join(dir, "sampled.phy")
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		err = os.WriteFile(input, s.Sampled.Alignment, 0o644)
	}
	if err != nil {
		r.fail("one-shot CLI reference for the sampled run: %v", err)
		return r
	}
	res := runProc(w.Timeout, dir, b.raxml(), "-s", input, "-n", "cli", "-w", dir, "-grid", "0",
		"-starts", strconv.Itoa(serveStarts), "-N", strconv.Itoa(serveBootstraps), "-grid-batch", strconv.Itoa(serveBootstraps),
		"-p", strconv.FormatInt(s.Sampled.P, 10), "-x", strconv.FormatInt(s.Sampled.X, 10))
	want, err := os.ReadFile(filepath.Join(dir, "RAxML_bestTree.cli"))
	o := &outcome{Topology: map[string]string{"best": sha(branchLenRe.ReplaceAll(s.TreeBest, nil))}}
	r.Outcomes = []*outcome{o}
	switch {
	case res.Err != nil || err != nil:
		r.fail("one-shot CLI reference for the sampled run: %v %v", res.Err, err)
	case !bytes.Equal(want, s.TreeBest):
		r.fail("/trees/best of run %s differs from the one-shot CLI's RAxML_bestTree", s.Sampled.ID)
	default:
		if err := checkTrees(s.TreeBest, inputsTiny[0].Taxa, 1); err != nil {
			r.fail("/trees/best of run %s: %v", s.Sampled.ID, err)
		}
	}
	if pinned := b.ref.lookup(w.Name, seed); pinned != nil {
		if err := o.matches(pinned[0]); err != nil {
			r.fail("sampled run: %v", err)
		}
	}
	return r
}

// serverMetrics derives the server.* per-layer metrics from a session.
func serverMetrics(s *serveSession) map[string]float64 {
	m := map[string]float64{}
	var submitMS, dedupMS, cold, warm, queue []float64
	turn := map[string][]float64{}
	for _, r := range s.Records {
		if r.Err != nil {
			continue
		}
		if r.Kind == "dup" {
			dedupMS = append(dedupMS, r.PostMS)
			continue
		}
		submitMS = append(submitMS, r.PostMS)
		queue = append(queue, r.QueueMS)
		turn[r.Tenant] = append(turn[r.Tenant], r.TurnMS)
		if r.Kind == "cold" {
			cold = append(cold, r.TurnMS)
		} else {
			warm = append(warm, r.TurnMS)
		}
	}
	if len(submitMS) == 0 || len(dedupMS) == 0 {
		return m
	}
	m["server.submit_ms"] = median(submitMS)
	m["server.dedup_hit_ms"] = median(dedupMS)
	m["server.turnaround_cold_ms"] = median(cold)
	m["server.turnaround_warm_ms"] = median(warm)
	m["server.queue_wait_ms"] = median(queue)
	if a, b := mean(turn[tenants[0]]), mean(turn[tenants[1]]); a > 0 && b > 0 {
		m["server.tenant_fairness"] = max(a, b) / min(a, b)
	}
	if cache, ok := s.Stats["cache"].(map[string]any); ok {
		for _, ns := range []string{"patterns", "starttree"} {
			if c, ok := cache[ns].(map[string]any); ok {
				hits, _ := c["hits"].(float64)
				misses, _ := c["misses"].(float64)
				if hits+misses > 0 {
					m["server.cache_hit_ratio."+ns] = hits / (hits + misses)
				}
			}
		}
	}
	return m
}
