package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"ros"
	"ros/internal/obs"
	"ros/internal/sim"
)

// RepResult is what one child process reports for one repetition of a
// workload: raw counts, sim-time latency lists and Obs deltas, from which
// the parent derives every named metric after pooling repetitions.
type RepResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Digest   string `json:"digest"`

	SetupHostS   float64 `json:"setup_host_s"`
	MeasureHostS float64 `json:"measure_host_s"`
	MeasureSimS  float64 `json:"measure_sim_s"`
	// WindowSimS is how long the workload offered load: arrivals for an
	// open loop, the writers' horizon for a closed one.
	WindowSimS  float64 `json:"window_sim_s"`
	Events      int64   `json:"events"`
	PeakHeap    int64   `json:"peak_heap_bytes"`
	GenLagMaxNS int64   `json:"gen_lag_max_ns"`

	// Measured-phase operations. Reads and write attempts are separate:
	// a shed write is retried by its writer, so one logical write can take
	// several attempts.
	Reads        int64    `json:"reads"`
	ReadErrors   int64    `json:"read_errors"`
	ReadWrong    int64    `json:"read_wrong"`
	ReadBytes    int64    `json:"read_bytes"`
	WriteTries   int64    `json:"write_attempts"`
	WritesShed   int64    `json:"writes_shed"`
	WriteErrors  int64    `json:"write_errors"`
	WritesAcked  int64    `json:"writes_acked"`
	WriteBytes   int64    `json:"write_bytes_acked"`
	LogicalOps   int64    `json:"logical_ops"`
	LogicalFails int64    `json:"logical_fails"`
	ReadLatNS    []int64  `json:"read_lat_ns"`
	WriteLatNS   []int64  `json:"write_lat_ns"`
	ErrSamples   []string `json:"err_samples,omitempty"`

	// End-of-run oracle: every acknowledged write read back.
	Verified    int64 `json:"verified"`
	VerifyLost  int64 `json:"verify_lost"`
	VerifyWrong int64 `json:"verify_wrong"`

	// Disc placement at the end of the measured phase.
	DiscBytes     int64   `json:"disc_bytes"`
	DiscUserBytes int64   `json:"disc_user_bytes"`
	BurnedInPhase int64   `json:"burned_in_phase"`
	Replicas      int64   `json:"replicas"`
	ArmBusyNS     int64   `json:"arm_busy_ns"`
	BufferPctMax  int64   `json:"buffer_pct_max"`
	ImbalancePct  float64 `json:"imbalance_pct"`

	Counters map[string]int64     `json:"counters"`
	Hists    map[string]histDelta `json:"hists"`

	// Traced runs only.
	CPUNS   map[string]int64 `json:"cpu_ns,omitempty"`
	CritNS  map[string]int64 `json:"crit_ns,omitempty"`
	CritOps int64            `json:"crit_ops,omitempty"`
}

// histDelta is a histogram's change across the measured phase.
type histDelta struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Buckets []int64 `json:"buckets"`
}

// Ops is every measured-phase operation attempt.
func (r *RepResult) Ops() int64 { return r.Reads + r.WriteTries }

// Failed is every attempt that errored, was shed or returned wrong bytes.
func (r *RepResult) Failed() int64 {
	return r.ReadErrors + r.ReadWrong + r.WritesShed + r.WriteErrors
}

// span is one of the benchmark's own calls into olfs or cluster, with both
// clocks. Spans are recorded only in traced runs.
type span struct {
	ID        int64  `json:"id"`
	Op        string `json:"op"`
	Path      string `json:"path"`
	SimStart  int64  `json:"sim_start_ns"`
	SimEnd    int64  `json:"sim_end_ns"`
	HostStart int64  `json:"host_start_ns"`
	HostEnd   int64  `json:"host_end_ns"`
	Err       string `json:"err,omitempty"`
}

// expect is the oracle's record of one acknowledged object.
type expect struct {
	size int
	crc  uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fill writes the deterministic content of object key into buf
// (splitmix64); len(buf) is a multiple of 8.
func fill(buf []byte, key uint64) {
	x := key
	for i := 0; i+8 <= len(buf); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		binary.LittleEndian.PutUint64(buf[i:], z)
	}
}

// objectKey derives object id's content key from the run seed.
func objectKey(seed int64, id uint64) uint64 {
	return uint64(seed)*0x100000001b3 ^ (id+1)*0x9e3779b97f4a7c15
}

// object returns the content of the object with key: its size is uniform
// over 4 KiB multiples in [nominal/2, 3*nominal/2], so the mean is nominal
// and sizes, hence timings, depend on the seed.
func object(key uint64, nominal int) []byte {
	z := (key ^ key>>31) * 0xbf58476d1ce4e5b9
	z ^= z >> 29
	steps := uint64(nominal/4096 + 1)
	buf := make([]byte, nominal/2+int(z%steps)*4096)
	fill(buf, key)
	return buf
}

// rep drives one repetition of a workload on one System.
type rep struct {
	size   size
	seed   int64
	traced bool
	sys    *ros.System
	rng    *rand.Rand
	res    *RepResult

	measuring  bool
	ingestLive int // ingest writers still running
	acked      map[string]expect
	ackOrder   []string
	hostStart  time.Time
	spans      []span
	nextSpan   int64
	crit       map[string]int64
	critOps    int64
}

// errOverload reports whether err is an admission-control shed.
func errOverload(err error) bool { return errors.Is(err, ros.ErrOverload) }

// write stores one object through the cluster or the single-rack FS and
// records the attempt. It returns the error so closed-loop writers can back
// off on overload.
func (r *rep) write(p *sim.Proc, path string, data []byte) error {
	start, counted := p.Now(), r.measuring
	sp, op := r.begin(p, "write", path)
	var err error
	if r.sys.Cluster != nil {
		err = r.sys.Cluster.WriteFile(p, path, data)
	} else {
		err = r.sys.FS.WriteFile(p, path, data)
	}
	r.end(p, sp, op, err)
	if err == nil {
		r.acked[path] = expect{size: len(data), crc: crc32.Checksum(data, castagnoli)}
		r.ackOrder = append(r.ackOrder, path)
	}
	if !counted {
		return err
	}
	r.res.WriteTries++
	switch {
	case err == nil:
		r.res.WritesAcked++
		r.res.WriteBytes += int64(len(data))
		r.res.WriteLatNS = append(r.res.WriteLatNS, int64(p.Now()-start))
	case errOverload(err):
		r.res.WritesShed++
	default:
		r.res.WriteErrors++
		r.noteErr("write", path, err)
	}
	return err
}

// read fetches one object, checks its bytes against the oracle and records
// latency from due, the time the arrival was scheduled.
func (r *rep) read(p *sim.Proc, path string, due time.Duration) {
	counted := r.measuring
	sp, op := r.begin(p, "read", path)
	data, err := r.readRaw(p, path)
	r.end(p, sp, op, err)
	if !counted {
		return
	}
	ok := err == nil && r.matches(path, data)
	r.res.Reads++
	r.res.LogicalOps++
	switch {
	case err != nil:
		r.res.ReadErrors++
		r.res.LogicalFails++
		r.noteErr("read", path, err)
	case !ok:
		r.res.ReadWrong++
		r.res.LogicalFails++
		r.noteErr("read", path, fmt.Errorf("wrong bytes (%d bytes)", len(data)))
	default:
		r.res.ReadBytes += int64(len(data))
		r.res.ReadLatNS = append(r.res.ReadLatNS, int64(p.Now()-due))
	}
}

func (r *rep) readRaw(p *sim.Proc, path string) ([]byte, error) {
	if r.sys.Cluster != nil {
		return r.sys.Cluster.ReadFile(p, path)
	}
	return r.sys.FS.ReadFile(p, path)
}

func (r *rep) matches(path string, data []byte) bool {
	e, ok := r.acked[path]
	return ok && len(data) == e.size && crc32.Checksum(data, castagnoli) == e.crc
}

func (r *rep) noteErr(kind, path string, err error) {
	if len(r.res.ErrSamples) < 8 {
		r.res.ErrSamples = append(r.res.ErrSamples,
			fmt.Sprintf("%s %s: %v", kind, path, err))
	}
}

// begin opens the benchmark's span and, in traced runs, an obs trace whose
// critical path is folded into crit.* when the call returns.
func (r *rep) begin(p *sim.Proc, kind, path string) (*span, *obs.Op) {
	if !r.traced || !r.measuring {
		return nil, nil
	}
	r.nextSpan++
	sp := &span{ID: r.nextSpan, Op: kind, Path: path,
		SimStart: int64(p.Now()), HostStart: int64(time.Since(r.hostStart))}
	return sp, r.sys.FS.Tracer().StartOp(p, "bench."+kind, "interactive")
}

func (r *rep) end(p *sim.Proc, sp *span, op *obs.Op, err error) {
	if sp == nil {
		return
	}
	op.Finish(p, err)
	for _, ph := range op.Trace().CriticalPath() {
		r.crit[ph.Name] += int64(ph.Dur)
	}
	r.critOps++
	sp.SimEnd = int64(p.Now())
	sp.HostEnd = int64(time.Since(r.hostStart))
	if err != nil {
		sp.Err = err.Error()
	}
	r.spans = append(r.spans, *sp)
}

// stepUntil drives the Env one event at a time, counting events and tracking
// the write-buffer fill gauges, until done reports true. It returns false if
// the event queue empties first (the workload deadlocked).
func (r *rep) stepUntil(done func() bool) bool {
	env := r.sys.Env
	gauges := r.bufferGauges()
	for !done() {
		if !env.Step() {
			return false
		}
		r.res.Events++
		for _, g := range gauges {
			if v := g.Value(); v > r.res.BufferPctMax {
				r.res.BufferPctMax = v
			}
		}
	}
	return true
}

func (r *rep) bufferGauges() []*obs.Gauge {
	if r.sys.Cluster == nil {
		return []*obs.Gauge{r.sys.Obs.Gauge("writepath.buffer_pct")}
	}
	var gs []*obs.Gauge
	for _, rk := range r.sys.Cluster.Racks() {
		gs = append(gs, rk.Reg.Gauge("writepath.buffer_pct"))
	}
	return gs
}

func (r *rep) armTime() time.Duration {
	if r.sys.Cluster == nil {
		return r.sys.Library.ArmTime()
	}
	var t time.Duration
	for _, rk := range r.sys.Cluster.Racks() {
		t += rk.Lib.ArmTime()
	}
	return t
}

// discBytes sums the catalogued disc extents of every rack: all bytes, and
// the non-parity (user data) bytes.
func (r *rep) discBytes() (all, user int64) {
	if r.sys.Cluster == nil {
		return catalogBytes(r.sys.FS.Cat.DIL)
	}
	for _, rk := range r.sys.Cluster.Racks() {
		a, u := catalogBytes(rk.FS.Cat.DIL)
		all += a
		user += u
	}
	return all, user
}

// verify reads back every acknowledged object after the measured phase.
func (r *rep) verify() error {
	paths := append([]string(nil), r.ackOrder...)
	return r.sys.Do(func(p *sim.Proc) error {
		for _, path := range paths {
			data, err := r.readRaw(p, path)
			r.res.Verified++
			switch {
			case err != nil:
				r.res.VerifyLost++
				r.noteErr("verify", path, err)
			case !r.matches(path, data):
				r.res.VerifyWrong++
				r.noteErr("verify", path, fmt.Errorf("wrong bytes (%d bytes)", len(data)))
			}
		}
		return nil
	})
}

// heapSampler tracks the peak live Go heap of the process, as measured at
// the end of each garbage collection, until stopped. The live heap does not
// depend on when collections happen to run, unlike the total heap.
type heapSampler struct {
	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
	peak int64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := int64(s[0].Value.Uint64()); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in bytes. It may be called more
// than once.
func (h *heapSampler) Stop() int64 {
	h.once.Do(func() { close(h.stop) })
	h.wg.Wait()
	return h.peak
}

// digest hashes every simulated statistic of the repetition: the Obs deltas
// (tracer bookkeeping excluded), the latency lists and the outcome counts.
// It depends only on simulated behaviour, so a host-only speed-up leaves it
// byte-identical.
func digest(res *RepResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %d\n", res.Workload, res.Seed)
	fmt.Fprintf(h, "sim %v events %d\n", res.MeasureSimS, res.Events)
	fmt.Fprintf(h, "reads %d %d %d %d\n", res.Reads, res.ReadErrors, res.ReadWrong, res.ReadBytes)
	fmt.Fprintf(h, "writes %d %d %d %d %d\n", res.WriteTries, res.WritesShed, res.WriteErrors, res.WritesAcked, res.WriteBytes)
	fmt.Fprintf(h, "verify %d %d %d\n", res.Verified, res.VerifyLost, res.VerifyWrong)
	fmt.Fprintf(h, "disc %d %d %d arm %d buf %d imb %v\n", res.DiscBytes, res.DiscUserBytes,
		res.BurnedInPhase, res.ArmBusyNS, res.BufferPctMax, res.ImbalancePct)
	fmt.Fprintf(h, "rl %v\nwl %v\n", res.ReadLatNS, res.WriteLatNS)
	for _, k := range sortedKeys(res.Counters) {
		fmt.Fprintf(h, "c %s %d\n", k, res.Counters[k])
	}
	for _, k := range sortedKeys(res.Hists) {
		d := res.Hists[k]
		fmt.Fprintf(h, "h %s %d %d %v\n", k, d.Count, d.Sum, d.Buckets)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// obsDelta records counter and histogram changes between two snapshots,
// leaving out the tracer's own trace.* bookkeeping.
func obsDelta(before, after obs.Snapshot) (map[string]int64, map[string]histDelta) {
	cs := map[string]int64{}
	prev := map[string]int64{}
	for _, c := range before.Counters {
		prev[c.Name] = c.Value
	}
	for _, c := range after.Counters {
		if !strings.HasPrefix(c.Name, "trace.") {
			cs[c.Name] = c.Value - prev[c.Name]
		}
	}
	hs := map[string]histDelta{}
	prevH := map[string]obs.HistogramSnapshot{}
	for _, h := range before.Histograms {
		prevH[h.Name] = h
	}
	for _, h := range after.Histograms {
		p := prevH[h.Name]
		d := histDelta{Count: h.Count - p.Count, Sum: h.Sum - p.Sum,
			Buckets: make([]int64, len(h.Buckets))}
		for i, n := range h.Buckets {
			d.Buckets[i] = n
			if i < len(p.Buckets) {
				d.Buckets[i] -= p.Buckets[i]
			}
		}
		hs[h.Name] = d
	}
	return cs, hs
}

// writeSpans writes the traced run's spans as JSON lines under dir.
func writeSpans(dir string, res *RepResult, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-%d.jsonl", res.Workload, res.Seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
