package xmlutil

import "math/bits"

// Word-at-a-time byte search for the per-cell loops of the bulk path
// (ScanText, AppendEscaped): eight bytes are tested for a handful of
// ASCII delimiters with a few integer operations, where a byte loop
// branches eight times.

const (
	lows  = 0x0101010101010101
	highs = 0x8080808080808080
)

// matches flags, in the top bit of each byte, the bytes of w that equal
// c. A byte above a true match may be flagged falsely (the match's
// borrow runs into it), never one below, so the lowest flag is exact.
// A byte of 0x80 or above never matches an ASCII c.
func matches(w uint64, c byte) uint64 {
	x := w ^ (lows * uint64(c))
	return (x - lows) &^ x & highs
}

// firstFlag is the index of the byte whose flag is the lowest in m,
// which is not zero: the first byte in memory order, the word having
// been loaded little-endian.
func firstFlag(m uint64) int { return bits.TrailingZeros64(m) >> 3 }

// load64 reads s[i:i+8] as a little-endian word (the compiler merges the
// eight loads into one).
func load64(s string, i int) uint64 {
	s = s[i : i+8]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}
