package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"ros"
	"ros/internal/bucket"
	"ros/internal/image"
	"ros/internal/sim"
)

// size holds every workload's scale knobs; each workload reads its own.
type size struct {
	// cold-read
	corpusFiles  int
	corpusChunk  int // files written between forced burns
	fileBytes    int
	readsPerHour float64
	reads        int
	// popularityEpoch is how many reads share one popularity ranking.
	popularityEpoch int
	// ingest
	writers int
	warm    time.Duration
	horizon time.Duration
	// fed-mixed
	objects0  int
	objBytes  int
	opsPerSec float64
	ops       int
}

// workload is one named input set. setup assembles nothing itself: the
// System is built from options before setup runs, and both count as set-up.
type workload struct {
	name    string
	why     string
	options func() ros.Options
	setup   func(r *rep) error
	measure func(r *rep) error
}

var workloads = []*workload{coldRead, ingest, fedMixed}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// fullSize is the scale the benchmark runs at; tinySize is the self-test's.
func fullSize() size {
	return size{
		corpusFiles: 400, corpusChunk: 16, fileBytes: 256 << 10, readsPerHour: 20, reads: 3000, popularityEpoch: 500,
		writers: 4, warm: time.Hour, horizon: 8 * time.Hour,
		objects0: 500, objBytes: 16 << 10, opsPerSec: 40, ops: 2500,
	}
}

func tinySize() size {
	return size{
		corpusFiles: 100, corpusChunk: 16, fileBytes: 256 << 10, readsPerHour: 20, reads: 200, popularityEpoch: 100,
		writers: 4, warm: 10 * time.Minute, horizon: 40 * time.Minute,
		objects0: 600, objBytes: 16 << 10, opsPerSec: 40, ops: 300,
	}
}

// arrivals returns n Poisson arrival times at rate per second.
func arrivals(rng *rand.Rand, n int, perSec float64) []time.Duration {
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / perSec
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// openLoop spawns one process per arrival at its due time and steps the
// Env until every arrival has finished. issue runs on the arrival's process.
func (r *rep) openLoop(due []time.Duration, issue func(p *sim.Proc, i int, due time.Duration)) error {
	env := r.sys.Env
	base := env.Now()
	r.res.WindowSimS = due[len(due)-1].Seconds()
	outstanding, generated := 0, false
	env.Go("bench-gen", func(p *sim.Proc) {
		for i, d := range due {
			at := base + d
			if at > p.Now() {
				p.Sleep(at - p.Now())
			}
			outstanding++
			i, at := i, at
			env.Go("bench-op", func(op *sim.Proc) {
				if lag := int64(op.Now() - at); lag > r.res.GenLagMaxNS {
					r.res.GenLagMaxNS = lag
				}
				issue(op, i, at)
				outstanding--
			})
		}
		generated = true
	})
	if !r.stepUntil(func() bool { return generated && outstanding == 0 }) {
		return fmt.Errorf("simulation deadlocked with %d operations outstanding", outstanding)
	}
	return nil
}

// ---------------------------------------------------------------------------
// cold-read

var coldRead = &workload{
	name: "cold-read",
	why:  "open-loop Zipf reads of a burned corpus 8x the disk buffer: olfs fetch, sched, rack and optical do the work while writepath, raid parity and cluster idle",
	options: func() ros.Options {
		return ros.Options{
			DriveGroups: 2,
			Media:       ros.Media25GB,
			BufferSlots: 12,
			BucketBytes: 1 << 20,
			SchedPolicy: "qos-scan",
		}
	},
	// Set-up writes the corpus in chunks of a third of the buffer, burning
	// each before the next, so burns always find slots for parity.
	setup: func(r *rep) error {
		return r.sys.Do(func(p *sim.Proc) error {
			for i := 0; i < r.size.corpusFiles; i++ {
				data := object(objectKey(r.seed, uint64(i)), r.size.fileBytes)
				// A full buffer is transient while burns are in flight.
				err := r.write(p, corpusPath(i), data)
				for try := 0; errors.Is(err, bucket.ErrNoFreeSlot) && try < 60; try++ {
					p.Sleep(time.Minute)
					err = r.write(p, corpusPath(i), data)
				}
				if err != nil {
					return fmt.Errorf("corpus write %d: %w", i, err)
				}
				if (i+1)%r.size.corpusChunk != 0 && i+1 != r.size.corpusFiles {
					continue
				}
				err = burnAll(p, r.sys)
				for try := 0; errors.Is(err, bucket.ErrNoFreeSlot) && try < 60; try++ {
					p.Sleep(time.Minute)
					err = burnAll(p, r.sys)
				}
				if err != nil {
					return fmt.Errorf("corpus burn after file %d: %w", i, err)
				}
			}
			return nil
		})
	},
	measure: func(r *rep) error {
		n := r.size.corpusFiles
		zipf := rand.NewZipf(r.rng, 1.1, 1, uint64(n-1))
		due := arrivals(r.rng, r.size.reads, r.size.readsPerHour/3600)
		target := make([]int, len(due))
		var perm []int // popularity rank -> file, independent of write order
		for i := range target {
			if i%r.size.popularityEpoch == 0 {
				perm = r.rng.Perm(n) // popularity drifts: a new hot set
			}
			target[i] = perm[zipf.Uint64()]
		}
		return r.openLoop(due, func(p *sim.Proc, i int, at time.Duration) {
			r.read(p, corpusPath(target[i]), at)
		})
	},
}

// burnAll seals the open bucket and burns every unburned image.
func burnAll(p *sim.Proc, sys *ros.System) error {
	done, err := sys.FS.FlushAndBurn(p)
	if err != nil {
		return err
	}
	_, err = done.Wait(p)
	return err
}

func corpusPath(i int) string { return fmt.Sprintf("/corpus/f%05d", i) }

// ---------------------------------------------------------------------------
// ingest

// ingestBackoff is the mean time a writer waits after its write is shed.
const ingestBackoff = 30 * time.Second

var ingest = &workload{
	name: "ingest",
	why:  "4 closed-loop 256 KB writers in overload with group commit and admission control: burn batching, parity and burn mechanics, no reads; the host-heaviest path",
	options: func() ros.Options {
		return ros.Options{
			DriveGroups: 2,
			BufferSlots: 60,
			BucketBytes: 2 << 20,
			BurnCap:     380e6,
			FS:          ros.FSConfig{DataDiscs: 2, ParityDiscs: 1, RecycleAfterBurn: true},
			Write: ros.WriteConfig{
				Batch: ros.BatchConfig{BurnBatchBytes: 16 << 20, BurnBatchLinger: 5 * time.Minute},
				Admission: ros.AdmissionConfig{
					Enabled:       true,
					CapacityBytes: 64 << 20,
					MaxWait:       2 * time.Minute,
				},
			},
		}
	},
	// Set-up starts the writers and runs them for the warm-up, so the
	// measured phase begins with the buffer at its steady overload level.
	setup: func(r *rep) error {
		env := r.sys.Env
		stop := r.size.warm + r.size.horizon
		r.ingestLive = r.size.writers
		for w := 0; w < r.size.writers; w++ {
			w := w
			backoff := rand.New(rand.NewSource(r.seed*31 + int64(w)))
			env.Go(fmt.Sprintf("bench-writer-%d", w), func(p *sim.Proc) {
				defer func() { r.ingestLive-- }()
				for seq := 0; p.Now() < stop; seq++ {
					data := object(objectKey(r.seed, uint64(w)<<32|uint64(seq)), r.size.fileBytes)
					if !r.writeRetrying(p, fmt.Sprintf("/ingest/w%d/f%06d", w, seq), data, backoff) {
						return
					}
				}
			})
		}
		if !r.stepUntil(func() bool { return env.Now() >= r.size.warm }) {
			return fmt.Errorf("ingest warm-up deadlocked")
		}
		return nil
	},
	measure: func(r *rep) error {
		r.res.WindowSimS = r.size.horizon.Seconds()
		if !r.stepUntil(func() bool { return r.ingestLive == 0 }) {
			return fmt.Errorf("simulation deadlocked with %d writers live", r.ingestLive)
		}
		return nil
	},
}

// writeRetrying issues one logical write, backing off and retrying while it
// is shed. Back-off is uniform over [15 s, 45 s], drawn from the writer's
// own source, so retries of different writers do not stay in lockstep. It
// reports false when the write failed for another reason.
func (r *rep) writeRetrying(p *sim.Proc, path string, data []byte, backoff *rand.Rand) bool {
	counted := r.measuring
	if counted {
		r.res.LogicalOps++
	}
	for {
		err := r.write(p, path, data)
		if err == nil {
			return true
		}
		if !errOverload(err) {
			if counted {
				r.res.LogicalFails++
			}
			return false
		}
		p.Sleep(ingestBackoff/2 + time.Duration(backoff.Int63n(int64(ingestBackoff))))
	}
}

// ---------------------------------------------------------------------------
// fed-mixed

// fedMinAge is how long after its write is due an object becomes a read
// target, so reads only ask for objects that are normally acknowledged.
const fedMinAge = time.Minute

var fedMixed = &workload{
	name: "fed-mixed",
	why:  "3 racks, 2 replicas, open-loop 16 KB writes and recency-biased reads 1:2: cluster routing, mv, pagecache and per-op simulator cost, burns in the background",
	options: func() ros.Options {
		return ros.Options{Racks: 3, Replicas: 2, BucketBytes: 2 << 20}
	},
	setup: func(r *rep) error {
		return r.sys.Do(func(p *sim.Proc) error {
			for i := 0; i < r.size.objects0; i++ {
				if err := r.write(p, objPath(i), object(objectKey(r.seed, uint64(i)), r.size.objBytes)); err != nil {
					return fmt.Errorf("population write %d: %w", i, err)
				}
			}
			return nil
		})
	},
	measure: func(r *rep) error {
		due := arrivals(r.rng, r.size.ops, r.size.opsPerSec)
		// Object ids in write order: the population, then measured writes.
		type opPlan struct {
			write bool
			obj   int
		}
		plan := make([]opPlan, len(due))
		var writeDue []time.Duration // due time of measured write k
		aged := 0                    // measured writes due at least fedMinAge ago
		for i, d := range due {
			if r.rng.Intn(3) == 0 {
				plan[i] = opPlan{write: true, obj: r.size.objects0 + len(writeDue)}
				writeDue = append(writeDue, d)
				continue
			}
			for aged < len(writeDue) && writeDue[aged]+fedMinAge <= d {
				aged++
			}
			eligible := r.size.objects0 + aged
			plan[i] = opPlan{obj: eligible - 1 - recencyZipf(r.rng, eligible)}
		}
		return r.openLoop(due, func(p *sim.Proc, i int, at time.Duration) {
			pl := plan[i]
			path := objPath(pl.obj)
			if pl.write {
				r.res.LogicalOps++
				if r.write(p, path, object(objectKey(r.seed, uint64(pl.obj)), r.size.objBytes)) != nil {
					r.res.LogicalFails++
				}
				return
			}
			if _, ok := r.acked[path]; !ok {
				r.res.Reads++
				r.res.LogicalOps++
				r.res.ReadErrors++
				r.res.LogicalFails++
				r.noteErr("read", path, fmt.Errorf("target not acknowledged %v after its write was due", fedMinAge))
				return
			}
			r.read(p, path, at)
		})
	},
}

func objPath(i int) string { return fmt.Sprintf("/obj/%02d/o%07d", i%64, i) }

// recencyZipf draws how many objects back from the newest of n to read:
// Zipf(s=1.1) over [0, n-1].
func recencyZipf(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	return int(rand.NewZipf(rng, 1.1, 1, uint64(n-1)).Uint64())
}

// catalogBytes sums a rack's catalogued disc extents: all of them, and
// the non-parity ones that hold user data.
func catalogBytes(dil map[string]image.DiscAddr) (all, user int64) {
	for _, a := range dil {
		all += a.Len
		if !a.Parity {
			user += a.Len
		}
	}
	return all, user
}
