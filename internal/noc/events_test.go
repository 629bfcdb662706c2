package noc_test

import (
	"testing"

	"astrasim/internal/cli"
	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/system"
)

// TestTrainAllReduceEvents pins the event count of the 4x4x4 4 MiB
// enhanced all-reduce. Every message is a single ring hop onto a
// source-fed link, so it joins a packet train and costs two events on
// the serial engine: the system layer's send and the train's delivery.
// No segment-done event fires, because no real packet ever queues behind
// a train and no upstream link ever blocks on one. On 2 workers each
// message adds one shard event: the deferred injection.
func TestTrainAllReduceEvents(t *testing.T) {
	const messages = 73728
	for _, workers := range []int{0, 2} {
		cfg := config.DefaultSystem()
		cfg.Algorithm = config.Enhanced
		cfg.IntraParallel = workers
		topo, err := cli.BuildTopology("4x4x4", cli.DefaultTopologyOptions(), &cfg)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := system.NewInstance(topo, cfg, config.DefaultNetwork())
		if err != nil {
			t.Fatal(err)
		}
		h, err := inst.Sys.IssueCollective(collectives.AllReduce, 4<<20, "allreduce", nil)
		if err != nil {
			t.Fatal(err)
		}
		inst.Eng.Run()
		if !h.Done() || h.ScheduledMessages() != messages {
			t.Fatalf("workers=%d: done=%v with %d messages, want %d", workers, h.Done(), h.ScheduledMessages(), messages)
		}
		var shard, wantShard uint64
		if inst.Par != nil {
			wantShard = messages
			for _, e := range inst.Par.Shards() {
				shard += e.Fired()
			}
		}
		if main := inst.Eng.Fired(); main != 2*messages || shard != wantShard {
			t.Fatalf("workers=%d: fired %d main and %d shard events, want %d and %d",
				workers, main, shard, 2*messages, wantShard)
		}
	}
}
