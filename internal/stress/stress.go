// Package stress reimplements the slice of stress-ng the paper uses to load
// the platform during the Table 2 latency measurements:
//
//	stress-ng -C 8 -c 8 -T 8 -y 8
//
// i.e. 8 cache-thrashing stressors, 8 CPU stressors, 8 timer stressors and
// 8 sched_yield stressors. Stressors affect the simulation through a
// scalar load factor fed to the kernel latency models (cache and timer
// stressors weigh more: they hit exactly the IRQ and scheduling paths
// cyclictest measures).
package stress

import "fmt"

// Config mirrors the stress-ng flags the paper passes.
type Config struct {
	Cache int // -C: cache-thrashing stressors
	CPU   int // -c: CPU stressors
	Timer int // -T: timer stressors
	Yield int // -y: sched_yield stressors
}

// PaperConfig returns the exact configuration of the evaluation:
// stress-ng -C 8 -c 8 -T 8 -y 8.
func PaperConfig() Config { return Config{Cache: 8, CPU: 8, Timer: 8, Yield: 8} }

// Load converts the stressor mix into a saturating pressure factor in
// [0,1]. Cache and timer stressors perturb the wake-up path the most
// (coherence misses in the scheduler, timer-IRQ storms); CPU and yield
// stressors mostly consume cycles.
func (c Config) Load() float64 {
	w := 2.0*float64(c.Cache) + 1.0*float64(c.CPU) + 2.5*float64(c.Timer) + 0.5*float64(c.Yield)
	// Saturating: the paper's mix (w = 48) lands at ~0.91.
	return w / (w + 5)
}

// String formats the config stress-ng style.
func (c Config) String() string {
	return fmt.Sprintf("stress-ng -C %d -c %d -T %d -y %d", c.Cache, c.CPU, c.Timer, c.Yield)
}
