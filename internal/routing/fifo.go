package routing

import "math"

// queueSlab holds a shard's FIFO queues as rings carved from one
// contiguous packet slab. The per-queue bookkeeping is a dense 16-byte
// ring record (four to a cache line) and the slots are indices into the
// slab, so a link's queue costs one bookkeeping load and one slot load,
// with no slice header or pointer to chase between them. Every shard's
// slab shares the run's one ring table, indexed by the global queue
// number, and touches only the records of its own queues. A queue that
// empties rewinds its head to slot 0, so a queue that drains often keeps
// its traffic near the start of its slots.
//
// Finite-buffer queues are carved with exactly BufferLimit slots and
// never grow: the engine checks full before every push, and the credit
// scheme bounds every arrival. An unbounded queue that fills moves to a
// fresh region of twice its size appended to its slab (see grow); the
// region it leaves is not reused. A relocation that finds the slab full
// doubles its capacity, so the first one reserves as much room again as
// the whole initial carve and later ones rarely allocate: once the
// queues reach their high-water sizes the engine never allocates, which
// is what lets TestStepAllocsZero pin the hot loop at zero allocations
// per cycle.
type queueSlab struct {
	rings []ring
	slots []packet
}

// ring is one queue's bookkeeping: its slots are slots[off : off+size],
// the front packet sits at off+head, and n packets are live. int32 keeps
// the record at 16 bytes; a slab past 2^31 slots would hold 48 GiB of
// packets, and grow refuses to go there.
type ring struct {
	off, size int32
	head, n   int32
}

// len returns the number of packets queued on q.
func (qs *queueSlab) len(q int) int { return int(qs.rings[q].n) }

// front returns q's head packet. The queue must be non-empty.
func (qs *queueSlab) front(q int) packet {
	r := &qs.rings[q]
	return qs.slots[r.off+r.head]
}

// at returns q's i-th packet counting from the front (i < len(q)).
func (qs *queueSlab) at(q, i int) packet {
	r := &qs.rings[q]
	j := int(r.head) + i
	if j >= int(r.size) {
		j -= int(r.size)
	}
	return qs.slots[int(r.off)+j]
}

// pop removes q's head packet. A queue that empties rewinds to slot 0.
func (qs *queueSlab) pop(q int) {
	r := &qs.rings[q]
	r.n--
	r.head++
	if r.n == 0 || r.head == r.size {
		r.head = 0
	}
}

// push appends pk at q's tail, growing a full queue first.
func (qs *queueSlab) push(q int, pk packet) {
	r := &qs.rings[q]
	if r.n == r.size {
		qs.grow(q)
	}
	t := r.head + r.n
	if t >= r.size {
		t -= r.size
	}
	qs.slots[r.off+t] = pk
	r.n++
}

// grow moves the full queue q to a new region of twice its size at the
// end of the slab, unwrapping its packets to start at slot 0.
func (qs *queueSlab) grow(q int) {
	r := &qs.rings[q]
	off, size := len(qs.slots), 2*int(r.size)
	if off > math.MaxInt32-size {
		panic("routing: queue slab outgrew 2^31 packet slots")
	}
	if need := off + size; need > cap(qs.slots) {
		grown := make([]packet, off, 2*need)
		copy(grown, qs.slots)
		qs.slots = grown
	}
	qs.slots = qs.slots[:off+size]
	old := qs.slots[r.off : r.off+r.size]
	moved := copy(qs.slots[off:], old[r.head:])
	copy(qs.slots[off+moved:], old[:r.head])
	r.off, r.size, r.head = int32(off), int32(size), 0
}
