package astrasim

import "astrasim/internal/system"

// RunEvents builds one simulation of p, lets run drive it to completion
// and returns the events it fired: the main engine's, plus every shard
// engine's on the partitioned engine.
func RunEvents(p *Platform, run func(*system.Instance) error) (uint64, error) {
	inst, _, err := p.instance(nil)
	if err != nil {
		return 0, err
	}
	if err := run(inst); err != nil {
		return 0, err
	}
	n := inst.Eng.Fired()
	if inst.Par != nil {
		for _, e := range inst.Par.Shards() {
			n += e.Fired()
		}
	}
	return n, nil
}
