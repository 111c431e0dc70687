package queue

// Frame is one unit of work in the buffer: an encoded audio or video frame
// that arrived from the WLAN and awaits decoding.
type Frame struct {
	// Seq is the frame's position in the trace, starting at 0.
	Seq int
	// ArrivalTime is the simulation time the frame entered the buffer.
	ArrivalTime float64
	// Work is the decode time this frame needs at the maximum CPU frequency
	// (seconds). The simulator divides by the performance ratio of the
	// current operating point to get the actual decode time.
	Work float64
	// ClipID identifies which clip of the sequence the frame belongs to.
	ClipID int
}

// Buffer is the frame buffer associated with the device (Figure 1): a FIFO of
// frames awaiting decode. Frames carry their arrival timestamps so the
// simulator can account per-frame total delay (the paper's performance
// metric).
type Buffer struct {
	frames []Frame
	// head avoids O(n) dequeues; the slice is compacted opportunistically.
	head int
	// peak tracks the maximum occupancy seen.
	peak int
}

// NewBuffer returns an empty frame buffer.
func NewBuffer() *Buffer { return &Buffer{} }

// Len returns the number of buffered frames.
func (b *Buffer) Len() int { return len(b.frames) - b.head }

// Empty reports whether the buffer holds no frames.
func (b *Buffer) Empty() bool { return b.Len() == 0 }

// Push appends a frame.
func (b *Buffer) Push(f Frame) {
	b.frames = append(b.frames, f)
	if n := b.Len(); n > b.peak {
		b.peak = n
	}
}

// Pop removes and returns the oldest frame. It panics on an empty buffer;
// callers check Empty first (the simulator's decode path guarantees this).
func (b *Buffer) Pop() Frame {
	if b.Empty() {
		panic("queue: Pop on empty buffer")
	}
	f := b.frames[b.head]
	b.head++
	// Compact once the dead prefix dominates, amortised O(1).
	if b.head > 64 && b.head*2 >= len(b.frames) {
		n := copy(b.frames, b.frames[b.head:])
		b.frames = b.frames[:n]
		b.head = 0
	}
	return f
}

// Peek returns the oldest frame without removing it. It panics on an empty
// buffer.
func (b *Buffer) Peek() Frame {
	if b.Empty() {
		panic("queue: Peek on empty buffer")
	}
	return b.frames[b.head]
}

// Peak returns the maximum occupancy observed since creation.
func (b *Buffer) Peak() int { return b.peak }
