package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layerMap buckets a profile sample by its leaf function: the first row
// whose prefix matches the function name (module path stripped) names the
// layer. Rows are tried in order, so narrower prefixes come first. The map
// is printed with every traced run.
var layerMap = []struct {
	layer    string
	prefixes []string
}{
	{"cpu.core.release", []string{
		"core.(*App).releaseDue", "core.(*App).releasePendingDataLocked", "core.(*App).noteDataReadyLocked",
		"core.(*App).wheel", "core.(*App).nextWheelDue", "core.(*App).rebuildWheelsLocked",
		"core.(*App).fillJob", "core.(*App).releaseJob", "core.(*timerWheel)", "core.(*releaseShard)",
		"core.newTimerWheel"}},
	{"cpu.core.dispatch", []string{
		"core.(*App).dispatch", "core.(*App).preemptShard", "core.(*App).signal", "core.(*App).schedulerLoop",
		"core.(*App).schedPeriod", "core.(*readyQueue)", "core.newReadyQueue", "core.queueOpCost",
		"core.(*App).takeWork", "core.(*App).trySteal", "core.(*App).workVisible", "core.(*App).enqueueIdle",
		"core.(*App).claimIdle", "core.(*App).popIdle", "core.(*App).unlinkIdleLocked",
		"core.(*App).wakeAllWorkers", "core.(*App).pushReady", "core.(*schedView)",
		"core.(*App).publishViewLocked", "core.(*App).setTaskStateLocked", "core.(*App).homeShardOf",
		"core.(*App).prioKeyOf"}},
	{"cpu.core.reconfig", []string{
		"core.(*Reconfig)", "core.(*PreparedReconfig)", "core.(*App).Reconfigure",
		"core.(*App).PrepareReconfigure", "core.(*App).SwitchMode", "core.(*App).allocEdgeSlot",
		"core.(*App).rebuildGraphLocked", "core.(*App).deriveTaskLocked", "core.(*App).resolve",
		"core.(*App).refreshTopics", "core.(*App).finishRetireLocked", "core.(*App).reapDeadTopicsLocked",
		"core.(*App).killTopicLocked", "core.(*App).allocTaskSlot", "core.resetTaskSlot",
		"core.(*App).taskIDByName", "core.(*App).TaskIDByName", "core.validateTData", "core.anyBlocking",
		"analysis.", "taskset."}},
	{"cpu.core.completion", []string{
		"core.(*App).completeJob", "core.(*App).recordCompletion", "core.(*App).allInputsReady",
		"core.(*App).consumeInputs", "core.(*App).accountEnergy", "core.(*App).freeJob",
		"core.(*App).recycleJobUnreleased", "core.(*App).pushFreeJob", "core.resetJob"}},
	{"cpu.core.worker", []string{
		"core.(*App).workerLoop", "core.(*App).prepareRun", "core.(*App).bindFiber", "core.(*App).pushFreeFib",
		"core.(*App).allocFib", "core.(*App).allocJob", "core.(*fiber)", "core.(*workerState)",
		"core.(*ExecCtx).Compute", "core.(*ExecCtx).suspendForPreemption", "core.(*ExecCtx).Sleep"}},
	{"cpu.core.topic", []string{
		"core.(*topic)", "core.(*topicView)", "core.(*ExecCtx).Publish", "core.(*ExecCtx).cursorFor",
		"core.(*ExecCtx).Take", "core.(*ExecCtx).Push", "core.(*ExecCtx).Pop", "core.(*ExecCtx).ChannelLen",
		"core.(*App).topicByID", "core.(*App).RemotePublish", "core.(*App).TopicDropped", "core.Send",
		"core.Recv"}},
	{"cpu.core.accel", []string{
		"core.(*App).pool", "core.(*App).acquireInstanceLocked", "core.(*App).recordAccel",
		"core.(*App).insertWaiterLocked", "core.(*App).resortWaiterLocked", "core.(*App).parkOnAccel",
		"core.(*App).boost", "core.(*App).setEffPrio", "core.(*App).restoreBoostLocked",
		"core.(*App).releaseInstanceLocked", "core.(*App).releaseAccel", "core.(*App).accelUsesLocked",
		"core.(*App).accelScaledOn", "core.(*ExecCtx).Accel", "core.(*ExecCtx).accelScaled",
		"core.(*ExecCtx).asyncAccelSection", "core.(*ExecCtx).detachedWait", "core.(*ExecCtx).rejoinWorker",
		"core.(*App).selectVersion", "core.(*App).orderBy", "core.(*App).filterBy",
		"core.(*App).batteryLevelFor", "core.(*App).selectByUser"}},
	{"cpu.core.other", []string{"core."}},
	{"cpu.sim", []string{"sim.", "rt."}},
	{"cpu.trace", []string{"trace."}},
	{"cpu.telemetry", []string{"telemetry.", "lockfree."}},
	{"cpu.cluster", []string{"cluster.", "jsonenc."}},
	{"cpu.scenario", []string{"scenario.", "spec.", "main."}},
	{"cpu.go.gc", []string{
		"runtime.gc", "runtime.scanobject", "runtime.greyobject", "runtime.markroot", "runtime.(*gcWork)",
		"runtime.(*gcBits)", "runtime.sweepone", "runtime.(*sweepLocked)", "runtime.(*mspan)",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.findObject", "runtime.wbBuf", "runtime.bulkBarrier",
		"runtime.(*gcControllerState)", "runtime.spanOf", "runtime.typePointers", "runtime.(*mheap)",
		"runtime.(*mcentral)", "runtime.(*pageAlloc)", "runtime.scanblock", "runtime.scanstack",
		"runtime.scanframeworker", "runtime.(*unwinder)", "runtime.pcvalue", "runtime.markBits",
		"runtime.heapBits", "runtime.(*scavenger)", "runtime.(*gcCPULimiterState)"}},
	{"cpu.go.alloc", []string{
		"runtime.mallocgc", "runtime.memclrNoHeapPointers", "runtime.nextFree", "runtime.(*mcache)",
		"runtime.growslice", "runtime.makeslice", "runtime.newobject", "runtime.makemap", "runtime.heapSetType",
		"runtime.publicationBarrier"}},
	{"cpu.go.sched", []string{
		"runtime.gopark", "runtime.goready", "runtime.schedule", "runtime.findRunnable", "runtime.mcall",
		"runtime.park_m", "runtime.ready", "runtime.chansend", "runtime.chanrecv", "runtime.chanparkcommit",
		"runtime.send", "runtime.recv", "runtime.lock", "runtime.unlock", "runtime.futex", "runtime.sem",
		"runtime.casgstatus", "runtime.(*guintptr)", "runtime.acquireSudog", "runtime.releaseSudog",
		"runtime.execute", "runtime.gogo", "runtime.runq", "runtime.netpoll", "runtime.stealWork",
		"runtime.note", "runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.selectgo",
		"runtime.(*waitq)", "runtime.usleep", "runtime.osyield", "runtime.procyield", "runtime.mPark",
		"runtime.resetspinning", "runtime.checkTimers", "runtime.goschedIfBusy", "runtime.acquirep",
		"runtime.releasep", "runtime.handoffp", "runtime.mstart", "runtime.goexit", "runtime.gosched",
		"runtime.newproc", "runtime.gfget", "runtime.gfput", "runtime.stack", "runtime.copystack",
		"runtime.morestack", "runtime.newstack", "runtime.(*timer", "runtime.timer"}},
}

// helperPrefixes are generic functions (clock reads, copies, hashing,
// maps, locks, containers) whose cost belongs to whoever called them: a
// sample whose leaf is a helper is charged to its first caller that is not.
var helperPrefixes = []string{
	"runtime.", "internal/", "time.", "sync.", "container/", "sort.", "slices.", "strings.", "strconv.",
	"fmt.", "math.", "aeshash", "memeqbody", "cmpbody", "indexbytebody", "countbody", "gcWriteBarrier",
}

func isHelper(fn string) bool {
	for _, p := range helperPrefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// cpuLayers lists the layer rows in table order, ending with cpu.other.
func cpuLayers() []string {
	out := make([]string, 0, len(layerMap)+1)
	for _, l := range layerMap {
		out = append(out, l.layer)
	}
	return append(out, "cpu.other")
}

const modulePrefix = "github.com/yasmin-rt/yasmin/internal/"

// layerOf names the layer of one sample from its stack (leaf first): the
// leaf's layer, or, for a helper leaf, the layer of its first non-helper
// caller.
func layerOf(stack []string) string {
	for _, fn := range stack {
		fn = strings.TrimPrefix(fn, modulePrefix)
		for _, l := range layerMap {
			for _, p := range l.prefixes {
				if strings.HasPrefix(fn, p) {
					return l.layer
				}
			}
		}
		if !isHelper(fn) {
			break
		}
	}
	return "cpu.other"
}

// printLayerMap writes the prefix→layer map the run used.
func printLayerMap(w io.Writer) {
	for _, l := range layerMap {
		fmt.Fprintf(w, "# layermap %s %s\n", l.layer, strings.Join(l.prefixes, " "))
	}
	fmt.Fprintf(w, "# layermap helpers (charged to their first other caller) %s\n", strings.Join(helperPrefixes, " "))
	fmt.Fprintf(w, "# layermap cpu.other (every other function)\n")
}

// cpuProfile is a decoded CPU profile reduced to CPU time per layer.
type cpuProfile struct {
	layerNS map[string]int64
	totalNS int64
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes and charges every sample's CPU nanoseconds to the layer of its
// stack (see layerOf).
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64 // leaf first
		ns   int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost inlined first
		fnName  = map[uint64]uint64{}   // function id -> string index
		strs    []string
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2: // the last value is CPU nanoseconds
					if vals := appendPacked(nil, v, b); len(vals) > 0 {
						s.ns = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id, name uint64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{layerNS: map[string]int64{}}
	var stack []string
	for _, s := range samples {
		stack = stack[:0]
		for _, l := range s.locs {
			for _, fn := range locFns[l] {
				if si := fnName[fn]; si < uint64(len(strs)) {
					stack = append(stack, strs[si])
				}
			}
		}
		p.layerNS[layerOf(stack)] += s.ns
		p.totalNS += s.ns
	}
	return p, nil
}

// layerShares gives each layer's share of the sampled CPU time (the rows
// sum to 1).
func (p *cpuProfile) layerShares() map[string]float64 {
	out := map[string]float64{}
	for _, l := range cpuLayers() {
		out[l] = ratio(float64(p.layerNS[l]), float64(p.totalNS))
	}
	return out
}

var errProto = errors.New("profile: malformed protobuf")

// pbFields walks the fields of one protobuf message. Varint fields pass
// their value; length-delimited fields pass their bytes.
func pbFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(field, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrived either as one
// value (v) or packed (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
