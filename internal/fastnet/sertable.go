package fastnet

import "astrasim/internal/eventq"

// serKey identifies one whole-message serialization charge. The per-packet
// carry loop reads nothing but the link's effective bandwidth, its carry
// register, and the message's packet schedule (bytes + packet size), so
// its output — total cycles and the carry left behind — is a pure function
// of these four values. Floats are keyed by their bit patterns: two carries
// that differ in the last ulp are different keys, which is what keeps
// cached results bit-identical to the loop they replaced.
type serKey struct {
	bw    uint64 // math.Float64bits of the link's effBW
	carry uint64 // math.Float64bits of the link's serCarry before the charge
	bytes int64  // message payload bytes (Send rejects <= 0)
	pkt   int64  // packet size after the MaxPacketsPerMessage cap
}

// serVal is the memoized result: the serializer advances cycles and is left
// holding carry.
type serVal struct {
	cycles eventq.Time
	carry  float64
}

// serCacheMaxEntries bounds serCache. Symmetric workloads revisit a small
// carry orbit, so in practice the cache stays tiny; the bound only bites
// on adversarial traffic (e.g. thousands of distinct message sizes in one
// run), where it caps memory in long-lived processes. When full, the
// whole table is dropped and rebuilt — a deterministic policy, and safe
// because a miss just re-runs the loop, whose output is bit-identical to
// the cached value.
const serCacheMaxEntries = 1 << 16

// serTableMinSlots is the slot count of a fresh table (a power of two).
const serTableMinSlots = 64

// serEntry is one table slot; a zero bytes field marks it empty, which
// no real key has.
type serEntry struct {
	key serKey
	val serVal
}

// serTable is the serialization memo: an open-addressed, linear-probed
// hash table over serKey. A key's home slot is taken from the top bits of
// a multiplicative hash, and the table doubles before it is half full, so
// probe runs stay short and a lookup never wraps a full table. It is not a
// Go map because the lookup runs on every single-link send: hashing the
// 32-byte key through the generic map code took about 9% of the CPU time
// of a fast-backend 8x8x8 all-reduce.
type serTable struct {
	slots []serEntry
	// shift maps a hash to a home slot: hash >> shift < len(slots).
	shift uint
	// count is the number of occupied slots.
	count int
}

func newSerTable() serTable {
	return serTable{slots: make([]serEntry, serTableMinSlots), shift: 64 - 6}
}

// home returns k's home slot.
func (t *serTable) home(k serKey) uint64 {
	h := k.bw ^ k.carry*0x9e3779b97f4a7c15
	h ^= uint64(k.bytes) * 0xc2b2ae3d27d4eb4f
	h ^= uint64(k.pkt) * 0x165667b19e3779f9
	h ^= h >> 32
	return (h * 0x9e3779b97f4a7c15) >> t.shift
}

// get returns k's memoized charge.
func (t *serTable) get(k serKey) (serVal, bool) {
	mask := uint64(len(t.slots) - 1)
	for i := t.home(k); ; i = (i + 1) & mask {
		e := &t.slots[i]
		if e.key.bytes == 0 {
			return serVal{}, false
		}
		if e.key == k {
			return e.val, true
		}
	}
}

// put memoizes k, which must not be present. A full table (count at
// serCacheMaxEntries) is first dropped for a fresh minimum-size one.
func (t *serTable) put(k serKey, v serVal) {
	switch {
	case t.count >= serCacheMaxEntries:
		*t = newSerTable()
	case 2*(t.count+1) > len(t.slots):
		old := t.slots
		t.slots = make([]serEntry, 2*len(old))
		t.shift--
		for _, e := range old {
			if e.key.bytes != 0 {
				t.insert(e)
			}
		}
	}
	t.insert(serEntry{key: k, val: v})
	t.count++
}

// insert places e in the first empty slot at or after its home.
func (t *serTable) insert(e serEntry) {
	mask := uint64(len(t.slots) - 1)
	i := t.home(e.key)
	for t.slots[i].key.bytes != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = e
}
