package routing

// fifo is a packet queue with amortised O(1) push/pop and a reusable
// backing array. The previous queue representation — a plain slice
// dequeued with q = q[1:] — marches its base pointer forward through
// memory, so once the original capacity is consumed every append
// reallocates: the simulator paid roughly one allocation per enqueue in
// steady state. Here pop advances a head index instead, keeping the
// buffer's front capacity alive; a push that finds the buffer full
// compacts the live elements back to the start in place rather than
// growing. After the queue reaches its high-water capacity it never
// allocates again, which is what lets TestStepAllocsZero pin the hot
// loop at zero allocations per cycle.
type fifo struct {
	buf  []packet
	head int
}

// newFifos returns n queues whose buffers are carved out of a single
// slab, each with capEach slots of preallocated capacity. A queue that
// outgrows its slot reallocates individually (append abandons the slab
// slice), so capEach is a head start, not a limit — except where the
// caller's own backpressure bounds occupancy (finite buffers' credit
// scheme caps every queue at BufferLimit), in which case an
// exact capEach makes queue growth impossible.
func newFifos(n, capEach int) []fifo {
	fs := make([]fifo, n)
	if capEach > 0 {
		slab := make([]packet, n*capEach)
		for i := range fs {
			fs[i].buf = slab[i*capEach : i*capEach : (i+1)*capEach]
		}
	}
	return fs
}

func (f *fifo) len() int { return len(f.buf) - f.head }

// items returns the live elements in FIFO order, head first. The slice
// aliases the backing array: callers must not retain it across queue
// mutations.
func (f *fifo) items() []packet { return f.buf[f.head:] }

// front returns the head element without removing it. The queue must
// be non-empty.
func (f *fifo) front() packet { return f.buf[f.head] }

// pop removes the head element. When the queue empties, the buffer is
// rewound so its full capacity is immediately reusable.
func (f *fifo) pop() {
	f.head++
	if f.head == len(f.buf) {
		f.head = 0
		f.buf = f.buf[:0]
	}
}

// push appends v at the tail, compacting live elements to the front of
// the backing array first when it is full but has dead space before
// the head.
func (f *fifo) push(v packet) {
	if f.head > 0 && len(f.buf) == cap(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	f.buf = append(f.buf, v)
}
