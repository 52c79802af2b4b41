package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"proger"
	"proger/internal/dist"
	"proger/internal/obs"
	"proger/internal/obs/live"
	"proger/internal/obs/quality"
)

// pollEvery is the period of the progress poller, the only thing that
// runs beside a measured operation.
const pollEvery = 5 * time.Millisecond

// harness runs the operations of one workload in this process and
// keeps the correctness ledger: every operation on a dataset must
// reproduce the digest of the first.
type harness struct {
	wl      *workload
	in      *inputs
	workDir string
	budget  int64 // memory budget of the spill variant
	fleetN  int   // workers of the dist variant

	attempted int
	failed    int
	failures  []string
	nextDir   int
	samples   []pollSample // poller storage, allocated once
}

func newHarness(wl *workload, workDir string, budget int64) *harness {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	return &harness{
		wl: wl, workDir: workDir, budget: budget, fleetN: n,
		// 1<<15 samples hold 160 s of polling, beyond the driver's cap
		// on a whole run.
		samples: make([]pollSample, 0, 1<<15),
	}
}

// hooks are the observers attached to one operation. The timed
// operations attach only live; the traced one attaches everything.
type hooks struct {
	live    bool
	trace   *obs.Tracer
	metrics *obs.Registry
	quality *quality.Recorder
	// masterReg and workerReg receive the dist registries (dist2 only).
	masterReg, workerReg *obs.Registry
}

// opOut is one completed operation.
type opOut struct {
	res      *proger.Result
	wall     float64 // seconds
	halfDups float64 // seconds until half of the final duplicates were visible
	fleet    proger.FleetSnapshot
}

// freshDir makes an empty directory for one operation's spill or run
// files, before the timed window opens.
func (h *harness) freshDir() (string, error) {
	h.nextDir++
	dir := filepath.Join(h.workDir, "op"+strconv.Itoa(h.nextDir))
	return dir, os.MkdirAll(dir, 0o755)
}

// op runs one operation of variant v and checks its output. An error
// or a digest different from the workload's first is a failed
// operation: it is counted, described in h.failures, and returned.
func (h *harness) op(v variant, hk hooks) (opOut, error) {
	out, err := h.run(v, hk)
	h.attempted++
	if err == nil {
		err = h.check(out.res)
	}
	if err != nil {
		h.failed++
		h.failures = append(h.failures, err.Error())
	}
	return out, err
}

func (h *harness) run(v variant, hk hooks) (opOut, error) {
	opts := h.in.opts
	opts.Trace, opts.Metrics, opts.Quality = hk.trace, hk.metrics, hk.quality
	var dir string
	if v == spill || v == dist2 {
		var err error
		if dir, err = h.freshDir(); err != nil {
			return opOut{}, err
		}
		defer os.RemoveAll(dir)
	}
	switch v {
	case spill:
		opts.MemBudget, opts.SpillDir = h.budget, dir
	case barrier:
		opts.Execution = proger.ExecBarrier
	case dist2:
		return h.runFleet(opts, dir, hk)
	}
	var hubs []*live.Run
	if hk.live {
		opts.Live = live.NewRun(nil)
		hubs = append(hubs, opts.Live)
	}
	p := h.startPoller(hubs)
	res, err := proger.Resolve(h.in.ds, opts)
	wall, half := p.stop()
	return opOut{res: res, wall: wall, halfDups: half}, err
}

// runFleet is one distributed operation: the fleet is started before
// the timed window, and the window closes when every driver has
// returned and the master is closed.
func (h *harness) runFleet(opts proger.Options, dir string, hk hooks) (opOut, error) {
	fl, err := startFleet(dir, h.fleetN, hk.masterReg, hk.workerReg)
	if err != nil {
		return opOut{}, err
	}
	// One hub per process-equivalent; index 0 is the master's.
	hubs := make([]*live.Run, 1+h.fleetN)
	if hk.live {
		for i := range hubs {
			hubs[i] = live.NewRun(nil)
		}
	}
	var res *proger.Result
	p := h.startPoller(hubs)
	err = fl.run(func(t proger.TaskTransport, proc int) error {
		o := opts
		o.Transport, o.Live = t, hubs[proc]
		if proc != 0 {
			// Observers hang off the master's driver only; the workers'
			// drivers replay the same jobs in lockstep, and their
			// registry is where the run-file byte counters land.
			o.Trace, o.Metrics, o.Quality = nil, hk.workerReg, nil
		}
		r, err := proger.Resolve(h.in.ds, o)
		if proc == 0 {
			res = r
		}
		return err
	})
	wall, half := p.stop()
	return opOut{res: res, wall: wall, halfDups: half, fleet: fl.master.FleetSnapshot()}, err
}

// check verifies one result: it is redundancy-free, every reported
// pair satisfies the workload's own match function, and its digest
// equals the first operation's.
func (h *harness) check(res *proger.Result) error {
	d := digestOf(res)
	if h.in.digest == "" {
		if len(res.Events) == 0 {
			return errors.New("no duplicates found")
		}
		if len(res.Events) != len(res.Duplicates) {
			return fmt.Errorf("%d events for %d distinct duplicate pairs", len(res.Events), len(res.Duplicates))
		}
		m := h.in.opts.Matcher
		for _, ev := range res.Events {
			a, b := h.in.ds.Get(ev.Pair.Lo), h.in.ds.Get(ev.Pair.Hi)
			if a == nil || b == nil || !m.Match(a, b) {
				return fmt.Errorf("reported pair (%d,%d) does not match", ev.Pair.Lo, ev.Pair.Hi)
			}
		}
		h.in.digest = d
		return nil
	}
	if d != h.in.digest {
		return fmt.Errorf("digest %s differs from the first operation's %s", d[:12], h.in.digest[:12])
	}
	return nil
}

// digestOf hashes what the repository's byte-identity invariant covers:
// every event as (Time, Lo, Hi) in emission order, then TotalTime.
func digestOf(res *proger.Result) string {
	h := sha256.New()
	var b [16]byte
	for _, ev := range res.Events {
		binary.LittleEndian.PutUint64(b[0:], math.Float64bits(float64(ev.Time)))
		binary.LittleEndian.PutUint32(b[8:], uint32(ev.Pair.Lo))
		binary.LittleEndian.PutUint32(b[12:], uint32(ev.Pair.Hi))
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[0:], math.Float64bits(float64(res.TotalTime)))
	h.Write(b[:8])
	return hex.EncodeToString(h.Sum(nil))
}

// ---- progress poller ----

type pollSample struct {
	at   time.Duration
	dups int64
}

type poller struct {
	h     *harness
	hubs  []*live.Run
	start time.Time
	quit  chan struct{}
	done  chan struct{}
}

func sumDups(hubs []*live.Run) int64 {
	var n int64
	for _, hub := range hubs {
		n += hub.Progress().Dups
	}
	return n
}

// startPoller opens the timed window.
func (h *harness) startPoller(hubs []*live.Run) *poller {
	p := &poller{h: h, hubs: hubs, quit: make(chan struct{}), done: make(chan struct{})}
	h.samples = h.samples[:0]
	p.start = time.Now()
	go func() {
		defer close(p.done)
		if len(hubs) == 0 || hubs[0] == nil {
			return
		}
		t := time.NewTicker(pollEvery)
		defer t.Stop()
		for {
			select {
			case <-p.quit:
				return
			case <-t.C:
				if len(h.samples) < cap(h.samples) {
					h.samples = append(h.samples, pollSample{time.Since(p.start), sumDups(hubs)})
				}
			}
		}
	}()
	return p
}

// stop closes the timed window and returns its length and the time at
// which half of the final duplicate count had been published.
func (p *poller) stop() (wall, half float64) {
	wall = time.Since(p.start).Seconds()
	close(p.quit)
	<-p.done
	half = wall
	if len(p.hubs) == 0 || p.hubs[0] == nil {
		return wall, half
	}
	final := sumDups(p.hubs)
	for _, s := range p.h.samples {
		if final > 0 && 2*s.dups >= final {
			return wall, s.at.Seconds()
		}
	}
	return wall, half
}

// ---- in-process fleet ----

// fleet is a master and its workers in this process, talking over real
// loopback TCP and a real shared run-file directory.
type fleet struct {
	master  *dist.Master
	workers []*dist.Worker
}

func startFleet(dataDir string, n int, masterReg, workerReg *obs.Registry) (*fleet, error) {
	m, err := dist.NewMaster(dist.MasterOptions{Listen: "127.0.0.1:0", DataDir: dataDir, Metrics: masterReg})
	if err != nil {
		return nil, err
	}
	fl := &fleet{master: m}
	for i := 0; i < n; i++ {
		// Parallel 1: never more executing threads than cores.
		w, err := dist.NewWorker(dist.WorkerOptions{Connect: m.Addr(), Parallel: 1, Metrics: workerReg})
		if err != nil {
			fl.close()
			return nil, err
		}
		fl.workers = append(fl.workers, w)
	}
	return fl, nil
}

// close says every worker's goodbye and then drains the master, which
// is immediate once all workers have departed.
func (fl *fleet) close() {
	for _, w := range fl.workers {
		w.Close()
	}
	fl.master.Close()
}

// run calls drive once per process-equivalent (0 = master, 1.. =
// workers), each with its own transport, waits for all of them and
// shuts the fleet down in the order the protocol wants: worker drivers,
// goodbyes, master drain.
func (fl *fleet) run(drive func(t proger.TaskTransport, proc int) error) error {
	errs := make([]error, 1+len(fl.workers))
	var wg sync.WaitGroup
	for i, w := range fl.workers {
		wg.Add(1)
		go func(i int, w *dist.Worker) {
			defer wg.Done()
			errs[i+1] = drive(w, i+1)
		}(i, w)
	}
	errs[0] = drive(fl.master, 0)
	if errs[0] != nil {
		// Workers blocked on a job the master never began would wait
		// for ever; closing them first fails their pending calls.
		fl.close()
		wg.Wait()
		return errs[0]
	}
	wg.Wait()
	fl.close()
	return errors.Join(errs...)
}

// ---- small statistics ----

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sample is one metric of one run. Value is what the metric reports;
// Median, Min and Max describe the N samples behind it (a few dozen
// samples support no percentile beyond the median).
type sample struct {
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

func single(v float64) sample { return sample{Value: v, Median: v, Min: v, Max: v, N: 1} }

// medianOf is a sample whose value is the median of xs.
func medianOf(xs []float64) sample {
	s := sample{Value: median(xs), Median: median(xs), N: len(xs)}
	for i, x := range xs {
		if i == 0 || x < s.Min {
			s.Min = x
		}
		if i == 0 || x > s.Max {
			s.Max = x
		}
	}
	return s
}

// peakRSSMiB reads the process's resident high-water mark.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
