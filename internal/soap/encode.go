package soap

import (
	"bytes"
	"sync"
	"sync/atomic"
)

// xmlDecl is prepended to every serialised envelope.
const xmlDecl = `<?xml version="1.0" encoding="UTF-8"?>`

// maxPooledBuffer caps the capacity a scratch buffer may retain when
// returned to the pool. A giant one-off response (a full rowset dump)
// would otherwise pin its high-water-mark allocation forever.
const maxPooledBuffer = 1 << 20

// Encode-path counters, exported through EncodeStats for the telemetry
// layer (telemetry imports soap, so the dependency must point this way).
var (
	encodedBytes atomic.Int64
	bufGets      atomic.Int64
	bufMisses    atomic.Int64
)

// Scratch buffers for envelope encoding and message reading come in two
// classes by capacity, and a buffer goes back to the class of its own:
// a bulk window's reply or read (hundreds of kB) that drew a buffer sized
// for a small message would pay for the window twice — the renderer's
// own slice, where the buffer's room is too small, and the buffer grown
// to take the copy. The small class's New hook counts misses (first use
// and post-GC refills); hits are derived as gets minus misses. The large
// class has no New: a draw from it that finds it empty takes a small
// buffer.
var (
	smallBufs = sync.Pool{New: func() any {
		bufMisses.Add(1)
		return new(bytes.Buffer)
	}}
	largeBufs sync.Pool
)

// largeBuffer is the capacity from which a buffer is in the large class.
const largeBuffer = 64 << 10

// getBuffer draws an empty buffer for a message of size bytes: from the
// class of that size, with room for it.
func getBuffer(size int) *bytes.Buffer {
	buf := drawBuffer(size >= largeBuffer)
	buf.Grow(size)
	return buf
}

// getReplyBuffer draws the buffer a reply is encoded into. The reply's
// size is not known until it is rendered, so it takes a large buffer if
// the pool has one: a small reply costs nothing there, and a window
// reply is rendered into the buffer's own room.
func getReplyBuffer() *bytes.Buffer { return drawBuffer(true) }

func drawBuffer(large bool) *bytes.Buffer {
	bufGets.Add(1)
	var buf *bytes.Buffer
	if large {
		buf, _ = largeBufs.Get().(*bytes.Buffer)
	}
	if buf == nil {
		buf = smallBufs.Get().(*bytes.Buffer)
	}
	buf.Reset()
	return buf
}

func putBuffer(buf *bytes.Buffer) {
	switch c := buf.Cap(); {
	case c > maxPooledBuffer:
		// oversized one-off; let the GC reclaim it
	case c >= largeBuffer:
		largeBufs.Put(buf)
	default:
		smallBufs.Put(buf)
	}
}

// EncodeStats reports cumulative envelope-encode telemetry: total
// serialised envelope bytes, and scratch-buffer pool hits and misses.
func EncodeStats() (encoded, poolHits, poolMisses int64) {
	gets, misses := bufGets.Load(), bufMisses.Load()
	hits := gets - misses
	if hits < 0 {
		hits = 0 // transient skew between the two loads
	}
	return encodedBytes.Load(), hits, misses
}
