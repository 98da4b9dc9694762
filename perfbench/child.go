package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"time"

	"ros"
)

// runRep executes one repetition of w in this process: set-up, the measured
// phase and the read-back oracle. With traced set it also turns on the
// request tracer and a CPU profile, and returns the benchmark's own spans.
func runRep(w *workload, sz size, seed int64, traced bool, faults string) (*RepResult, []span, error) {
	heap := startHeapSampler()
	defer heap.Stop()
	res := &RepResult{Workload: w.name, Seed: seed, Replicas: 1}
	r := &rep{
		size: sz, seed: seed, traced: traced, res: res,
		rng:   rand.New(rand.NewSource(seed)),
		acked: map[string]expect{}, crit: map[string]int64{},
		hostStart: time.Now(),
	}

	opts := w.options()
	opts.FaultSeed = seed
	opts.Faults = faults
	opts.TraceCapacity = -1
	if traced {
		opts.TraceCapacity = 0 // the tracer's default journal
	}
	t0 := time.Now()
	sys, err := ros.New(opts)
	if err != nil {
		return nil, nil, err
	}
	r.sys = sys
	if sys.Cluster != nil {
		res.Replicas = int64(sys.Cluster.Replicas())
	}
	if err := w.setup(r); err != nil {
		return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	res.SetupHostS = time.Since(t0).Seconds()

	// Collect set-up garbage now, so that the measured phase does not pay
	// for a collection whose timing varies from run to run.
	runtime.GC()
	res.Events, res.BufferPctMax = 0, 0 // count the measured phase only
	before := sys.MergedObs()
	arm0 := r.armTime()
	_, user0 := r.discBytes()
	sim0 := sys.Env.Now()
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, nil, err
		}
	}
	t1 := time.Now()
	r.measuring = true
	merr := w.measure(r)
	r.measuring = false
	res.MeasureHostS = time.Since(t1).Seconds()
	if traced {
		pprof.StopCPUProfile()
	}
	if merr != nil {
		return nil, nil, fmt.Errorf("%s measured phase: %w", w.name, merr)
	}
	res.MeasureSimS = (sys.Env.Now() - sim0).Seconds()
	res.Counters, res.Hists = obsDelta(before, sys.MergedObs())
	res.ArmBusyNS = int64(r.armTime() - arm0)
	all, user := r.discBytes()
	res.DiscBytes, res.DiscUserBytes, res.BurnedInPhase = all, user, user-user0
	if sys.Cluster != nil {
		res.ImbalancePct = sys.Cluster.ImbalancePct()
	}
	if traced {
		cpu, err := attributeCPU(prof.Bytes())
		if err != nil {
			return nil, nil, err
		}
		res.CPUNS, res.CritNS, res.CritOps = cpu, r.crit, r.critOps
	}

	if err := r.verify(); err != nil {
		return nil, nil, fmt.Errorf("%s read-back: %w", w.name, err)
	}
	res.PeakHeap = heap.Stop()
	res.Digest = digest(res)
	return res, r.spans, nil
}
