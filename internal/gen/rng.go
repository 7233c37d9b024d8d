// Package gen provides deterministic synthetic workload generators used as
// stand-ins for the real datasets of the SIGMOD evaluation: Erdős–Rényi and
// Barabási–Albert random labeled graphs, random geometric and lattice graphs, adversarial
// overlap-structure generators that stress specific support measures, and
// label assignment models (uniform and Zipf). All randomness flows through an
// explicit, seedable PRNG so every experiment is reproducible.
package gen

// RNG is a small, fast, deterministic pseudo-random number generator
// (splitmix64) with convenience helpers. It is intentionally independent of
// math/rand so that generated workloads are stable across Go releases.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with the given seed. Different seeds give
// independent streams; the same seed always reproduces the same stream.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed + 0x9E3779B97F4A7C15}
}

// Uint64 returns the next 64 pseudo-random bits (splitmix64 step).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("gen: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomly permutes the first n elements using the provided
// swap function, mirroring math/rand.Shuffle.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
