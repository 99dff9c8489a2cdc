package main

import "math"

// Inputs are made here, from the seed alone, and not by the repository's
// own workload or load-generator packages: a change to those packages
// cannot change what this benchmark sends.

// mix64 is the splitmix64 finalizer. It is a bijection on uint64, so
// distinct indices always give distinct keys.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// unmix64 inverts mix64.
func unmix64(x uint64) uint64 {
	x = unshift(x, 31)
	x *= modInverse(0x94d049bb133111eb)
	x = unshift(x, 27)
	x *= modInverse(0xbf58476d1ce4e5b9)
	return unshift(x, 30)
}

// unshift inverts x ^= x >> s.
func unshift(x uint64, s uint) uint64 {
	y := x
	for i := s; i < 64; i += s {
		y = x ^ y>>s
	}
	return y
}

// modInverse is the inverse of an odd c modulo 2^64 (Newton's method:
// each step doubles the number of correct low bits).
func modInverse(c uint64) uint64 {
	inv := c
	for i := 0; i < 6; i++ {
		inv *= 2 - c*inv
	}
	return inv
}

// rng is a splitmix64 generator.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	return &rng{s: mix64(seed*0x9e3779b97f4a7c15 + stream + 1)}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n uint64) uint64 { return r.next() % n }

// keySpace maps key indices 0..n-1 to the keys one seed uses.
type keySpace struct{ salt uint64 }

func newKeySpace(seed uint64) keySpace { return keySpace{salt: mix64(seed ^ 0x6b65797370616365)} }

// id is key i as a 64-bit integer (the table workload's key).
func (k keySpace) id(i uint64) uint64 { return mix64(i ^ k.salt) }

// index inverts id.
func (k keySpace) index(id uint64) uint64 { return unmix64(id) ^ k.salt }

// name is key i as a 17-byte string (the wire workloads' key).
func (k keySpace) name(i uint64) string {
	var b [17]byte
	b[0] = 'k'
	hex16(b[1:], k.id(i))
	return string(b[:])
}

// valueSize is the wire workloads' value size in bytes.
const valueSize = 32

// valueFor is the only value ever stored under key, so a hit that returns
// anything else is a wrong value.
func valueFor(key string) string {
	h := uint64(14695981039346656037) // FNV-1a
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	var b [valueSize]byte
	b[0] = 'v'
	hex16(b[1:], mix64(h))
	hex16(b[17:], mix64(h+1))
	return string(b[:valueSize])
}

// tableValue is the table workload's value for key id.
func tableValue(id uint64) uint64 { return mix64(id ^ 0x76616c7565) }

func hex16(dst []byte, v uint64) {
	const digits = "0123456789abcdef"
	n := len(dst)
	if n > 16 {
		n = 16
	}
	for i := 0; i < n; i++ {
		dst[i] = digits[v>>(60-4*uint(i))&15]
	}
}

// zipf draws ranks in [0, n) with P(r) ∝ 1/(r+1)^θ, by the method of
// Gray et al. ("Quickly generating billion-record synthetic databases"),
// the one YCSB uses.
type zipf struct {
	n                   uint64
	theta, alpha, eta   float64
	zetan, halfPowTheta float64
}

func newZipf(n uint64, theta float64) *zipf {
	zetan := 0.0
	for i := uint64(1); i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + math.Pow(0.5, theta)
	return &zipf{
		n:            n,
		theta:        theta,
		alpha:        1 / (1 - theta),
		eta:          (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		zetan:        zetan,
		halfPowTheta: math.Pow(0.5, theta),
	}
}

func (z *zipf) draw(u float64) uint64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.halfPowTheta {
		return 1
	}
	r := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

// op is one request of a wire workload: a key index and its verb.
type op struct {
	key uint32
	set bool
}

// mix is the shape of a wire workload's request stream.
type mix struct {
	keys    uint64  // key universe
	theta   float64 // Zipf skew; 0 = uniform
	setFrac float64 // share of SETs
}

// streamLen is the length of each connection's op stream. A run that
// issues more cycles through it again.
const streamLen = 1 << 21

// stream is connection conn's op stream for seed.
func stream(seed uint64, conn int, m mix, n int) []op {
	r := newRNG(seed, uint64(conn)+100)
	var z *zipf
	if m.theta > 0 {
		z = newZipf(m.keys, m.theta)
	}
	ops := make([]op, n)
	for i := range ops {
		var k uint64
		if z != nil {
			k = z.draw(r.float())
		} else {
			k = r.intn(m.keys)
		}
		ops[i] = op{key: uint32(k), set: r.float() < m.setFrac}
	}
	return ops
}
