package main

// Seeded key streams. A key is fmix64 of (stream id, index) packed into one
// word: fmix64 is a bijection, so two different (stream, index) pairs never
// yield the same key, and a key drawn from the negative stream is never one
// the workload inserted. Only these generated keys reach the program.

// Stream ids; each workload draws from the ones it needs.
const (
	streamLive    = 1  // keys inserted and later removed (prefill and churn)
	streamNeg     = 2  // keys never inserted (negative lookups)
	streamConnLow = 8  // vqfd-binary: streamConnLow+c is connection c's fresh keys
	streamFill    = 60 // the kernel layer's filler keys
)

const indexBits = 56

// fmix64 is the MurmurHash3 64-bit finalizer, a bijection on uint64.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// keyStream maps indices to keys for one (seed, stream) pair.
type keyStream struct {
	id   uint64
	salt uint64
}

func newStream(seed, id uint64) keyStream {
	return keyStream{id: id, salt: fmix64(seed*0x9e3779b97f4a7c15+id) & (1<<indexBits - 1)}
}

// key returns the stream's i-th key; i must stay below 2^56.
func (s keyStream) key(i uint64) uint64 {
	return fmix64(s.id<<indexBits | (i^s.salt)&(1<<indexBits-1))
}

// rng is splitmix64: the benchmark's only source of choices.
type rng struct{ s uint64 }

func newRNG(seed, salt uint64) *rng { return &rng{s: fmix64(seed ^ salt*0xbf58476d1ce4e5b9)} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// intn returns a value in [0, n); n must be positive.
func (r *rng) intn(n uint64) uint64 { return r.next() % n }
