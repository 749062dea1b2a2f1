package main

import (
	"sort"
	"strconv"
	"time"
)

// calibRefUS is the duration of one calib() call on the reference machine
// state, in µs. It only fixes the unit of "ms at reference speed"; it is
// never re-tuned, because every committed number is a multiple of it.
const calibRefUS = 140.0

// calibBurst is how many calib() calls bracket each side of a block.
const calibBurst = 8

// calib is the fixed reference kernel: string-keyed map inserts and
// lookups, small []string allocations and one sort — the engine's
// instruction mix (hashing, pointer chasing, short-lived garbage), so that
// whatever slows the engine on a shared box (cache and memory-bandwidth
// contention, CPU steal, frequency) slows calib by the same factor. The
// work is constant: same keys, same allocation count, every call.
func calib() int {
	const n = 704
	m := make(map[string]int, n/2)
	keys := make([]string, 0, n)
	var sb [12]byte
	x := uint32(2463534242)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		k := string(strconv.AppendUint(sb[:0], uint64(x%2048), 10))
		m[k]++
		keys = append(keys, k)
	}
	sum := 0
	rows := make([][]string, 0, n/4)
	for i := 0; i+3 < len(keys); i += 4 {
		sum += m[keys[i]] + m[keys[i+2]]
		rows = append(rows, []string{keys[i], keys[i+1], keys[i+3]})
	}
	sort.Strings(keys)
	return sum + len(rows) + len(keys[0])
}

var calibSink int

// clock turns raw wall-clock durations into "time at reference speed". It
// times a burst of calib() on each side of every block of work; a block's
// speed factor is calibRefUS ÷ the median calib time over the bursts from
// speedWindow blocks before it to speedWindow blocks after it. One burst is
// too few samples (the collector's mark phase alone doubles some of them),
// and the machine's speed wanders over seconds to minutes, not within the
// few hundred milliseconds the window spans.
type clock struct {
	bursts [][]float64 // µs samples of every burst, in order taken
	lastAt time.Time   // when the latest burst ended
	blocks [][2]int    // per block: index of its opening and closing burst
	now    func() time.Time
	kernel func() int
}

// timing is one raw duration and the block it was measured in.
type timing struct {
	ms    float64
	block int
}

const (
	speedWindow = 5
	// staleAfter is how old the previous block's closing burst may be and
	// still serve as the next block's opening burst.
	staleAfter = 2 * time.Millisecond
)

func newClock() *clock { return &clock{now: time.Now, kernel: calib} }

func (c *clock) burst() {
	out := make([]float64, calibBurst)
	for i := range out {
		t0 := c.now()
		calibSink += c.kernel()
		out[i] = float64(c.now().Sub(t0).Nanoseconds()) / 1e3
	}
	c.bursts = append(c.bursts, out)
	c.lastAt = c.now()
}

// open starts a block and returns its id. The previous block's closing
// burst is reused when the blocks are back to back.
func (c *clock) open() int {
	if len(c.bursts) == 0 || c.now().Sub(c.lastAt) > staleAfter {
		c.burst()
	}
	c.blocks = append(c.blocks, [2]int{len(c.bursts) - 1, -1})
	return len(c.blocks) - 1
}

// close ends the block opened last.
func (c *clock) close() {
	c.burst()
	c.blocks[len(c.blocks)-1][1] = len(c.bursts) - 1
}

// time runs fn as one block and returns its timing.
func (c *clock) time(fn func()) timing {
	id := c.open()
	t0 := c.now()
	fn()
	d := c.now().Sub(t0)
	c.close()
	return timing{float64(d.Nanoseconds()) / 1e6, id}
}

// speed is the speed factor of a closed block: multiply a raw duration
// measured inside the block by it. Call it once the neighbouring blocks
// have run.
func (c *clock) speed(block int) float64 {
	lo := c.blocks[max(0, block-speedWindow)][0]
	hi := c.blocks[min(len(c.blocks)-1, block+speedWindow)][1]
	var xs []float64
	for _, b := range c.bursts[lo : hi+1] {
		xs = append(xs, b...)
	}
	return calibRefUS / median(xs)
}

// norms is the timings at reference speed, in ms.
func (c *clock) norms(ts []timing) []float64 {
	speeds := make(map[int]float64)
	out := make([]float64, len(ts))
	for i, t := range ts {
		s, ok := speeds[t.block]
		if !ok {
			s = c.speed(t.block)
			speeds[t.block] = s
		}
		out[i] = t.ms * s
	}
	return out
}

// raws is the timings as measured, in ms.
func raws(ts []timing) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.ms
	}
	return out
}

// samples is every calib sample taken, in µs.
func (c *clock) samples() []float64 {
	var out []float64
	for _, b := range c.bursts {
		out = append(out, b...)
	}
	return out
}
