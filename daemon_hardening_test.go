package astrasim_test

// Daemon-hardening pins: a long-lived multi-tenant process reuses one
// Platform across thousands of jobs, concurrently. These tests pin the
// three properties that makes safe: no cross-run memory growth, no
// shared mutable state between concurrent runs (byte-identical to
// serial), and mutators racing runs without corruption (-race).

import (
	"runtime"
	"sync"
	"testing"

	"astrasim"
)

// TestRepeatedRunsSteadyStateMemory runs the same job many times on one
// platform and asserts the live heap stays flat: every per-run structure
// (instance, event queue, serialization memo) must be reclaimable, so a
// daemon serving thousands of identical jobs reaches a steady state.
func TestRepeatedRunsSteadyStateMemory(t *testing.T) {
	for _, backend := range []astrasim.Backend{astrasim.PacketBackend, astrasim.FastBackend} {
		p, err := astrasim.NewTorusPlatform(2, 2, 2, astrasim.WithBackend(backend))
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := p.RunCollective(astrasim.AllReduce, 1<<20); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			run() // warm up lazy structures before the baseline
		}
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 30; i++ {
			run()
		}
		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		// 30 further identical runs must not retain anything; 4 MB of
		// headroom absorbs allocator and testing-framework noise.
		if growth > 4<<20 {
			t.Errorf("backend %v: live heap grew %d bytes across 30 identical runs; per-run state is leaking", backend, growth)
		}
	}
}

// TestConcurrentRunsMatchSerial hammers one platform from many
// goroutines and asserts every result is byte-identical to a serial run:
// instance() must leave no shared mutable state. Run under -race in CI.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	p, err := astrasim.NewTorusPlatform(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetStraggler(3, 2); err != nil {
		t.Fatal(err)
	}
	serial, err := p.RunCollective(astrasim.AllReduce, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	durations := make([]uint64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := p.RunCollective(astrasim.AllReduce, 1<<20)
			if err != nil {
				errs[i] = err
				return
			}
			durations[i] = uint64(res.Duration())
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if durations[i] != uint64(serial.Duration()) {
			t.Errorf("concurrent run %d took %d cycles, serial took %d", i, durations[i], serial.Duration())
		}
	}
}

// TestMutatorsRaceRuns interleaves Set* mutators with concurrent runs;
// under -race this pins the snapshot-under-lock discipline in
// Platform.instance. Results are not asserted (each run legitimately
// sees whichever configuration it snapshots), only absence of races and
// errors.
func TestMutatorsRaceRuns(t *testing.T) {
	p, err := astrasim.NewTorusPlatform(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var mutator sync.WaitGroup
	mutator.Add(1)
	go func() {
		defer mutator.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := p.SetStraggler(astrasim.NodeID(i%8), float64(1+i%3)); err != nil {
				t.Error(err)
				return
			}
			p.SetAudit(i%2 == 0)
			if i%2 == 0 {
				p.SetBackend(astrasim.FastBackend)
			} else {
				p.SetBackend(astrasim.PacketBackend)
			}
		}
	}()
	var runs sync.WaitGroup
	for i := 0; i < 4; i++ {
		runs.Add(1)
		go func() {
			defer runs.Done()
			for j := 0; j < 3; j++ {
				if _, err := p.RunCollective(astrasim.AllReduce, 256<<10); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	runs.Wait()
	close(stop)
	mutator.Wait()
}
