package telemetry

import (
	"fmt"

	"github.com/yasmin-rt/yasmin/internal/jsonenc"
	"github.com/yasmin-rt/yasmin/internal/trace"
)

// Kind tags the record variant an Event carries.
type Kind uint8

// Event kinds, one per trace record shape.
const (
	// KindJob is one job execution (trace.JobRecord).
	KindJob Kind = iota + 1
	// KindReconfig is one committed reconfiguration epoch
	// (trace.ReconfigRecord).
	KindReconfig
	// KindRetire is one completed task drain (trace.RetireEvent).
	KindRetire
	// KindAccel is one accelerator-arbitration action (trace.AccelEvent).
	KindAccel
	// KindFrame is one cluster data-plane frame action (FrameRecord).
	KindFrame
	// KindClusterEpoch is one committed cluster-wide reconfiguration
	// (ClusterEpochRecord).
	KindClusterEpoch
)

var kindNames = map[Kind]string{
	KindJob:          "job",
	KindReconfig:     "reconfig",
	KindRetire:       "retire",
	KindAccel:        "accel",
	KindFrame:        "frame",
	KindClusterEpoch: "cepoch",
}

//yasmin:noalloc
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k)) //yasmin:alloc-ok unknown-kind fallback, cold
}

// Event is the ring-buffer element: a tagged union over the trace record
// shapes plus the pipeline-assigned sequence number. It is a plain value —
// publishing one copies it into a preallocated ring slot, so the record
// path allocates nothing. Only the field selected by Kind is meaningful.
type Event struct {
	Kind Kind
	// Seq is the 1-based global sequence number stamped by
	// Pipeline.Publish. Dropped events consume their number, so a gap in
	// an exported stream is exactly one lost record.
	Seq uint64
	// Node is the cluster node id of the pipeline that published the
	// event, stamped by Pipeline.Publish from Options.Node. A
	// single-node run is node 0 of a one-node cluster, so the zero value
	// is always correct; node 0 is elided from the wire (the decoder's
	// zero default reconstructs it losslessly).
	Node int

	Job      trace.JobRecord
	Reconfig trace.ReconfigRecord
	Retire   trace.RetireEvent
	Accel    trace.AccelEvent
	Frame    FrameRecord
	CEpoch   ClusterEpochRecord
}

// --- JSONL encoding -------------------------------------------------------
//
// One JSON object per line, tagged with "type". The encoder is built on
// internal/jsonenc's append-style helpers (shared with the cluster wire
// codec) so the writer goroutine reuses one buffer across batches and the
// steady-state export path performs zero allocations. Durations are
// nanosecond integers (offsets from environment start, as everywhere in
// internal/trace). Decoding (the replay path, never hot) uses
// encoding/json against the same schema; see docs/TRACE.md "Streaming
// export".
//
// Field keys are precomposed literals — `,"name":` with the separating
// comma and colon baked in — appended at the call site, where the
// compiler turns a constant-string append into immediate stores instead
// of a memmove call. (Passing a key through a helper parameter defeats
// that, so the jsonenc value helpers take the buffer with the key
// already appended.)

// appendNode appends the ",node":N field unless the event belongs to
// node 0 (single-node runs and the cluster coordinator's own node), which
// is elided: the decoder's zero default reconstructs it.
//
//yasmin:noalloc
func appendNode(b []byte, ev *Event) []byte {
	if ev.Node == 0 {
		return b
	}
	return jsonenc.AppendSigned(append(b, `,"node":`...), int64(ev.Node))
}

// AppendEvent appends ev as one JSON object (no trailing newline) and
// returns the extended buffer. It allocates only when the buffer grows.
//
//yasmin:noalloc
func AppendEvent(b []byte, ev *Event) []byte {
	switch ev.Kind {
	case KindJob:
		j := &ev.Job
		b = jsonenc.AppendDec(append(b, `{"type":"job","seq":`...), ev.Seq)
		b = appendNode(b, ev)
		b = jsonenc.AppendString(append(b, `,"task":`...), j.Task)
		b = jsonenc.AppendSigned(append(b, `,"tid":`...), int64(j.TaskID))
		b = jsonenc.AppendSigned(append(b, `,"job":`...), j.Job)
		b = jsonenc.AppendSigned(append(b, `,"ver":`...), int64(j.Version))
		b = jsonenc.AppendSigned(append(b, `,"core":`...), int64(j.Core))
		if j.Accel != "" {
			b = jsonenc.AppendString(append(b, `,"accel":`...), j.Accel)
		}
		b = jsonenc.AppendSigned(append(b, `,"rel":`...), int64(j.Release))
		b = jsonenc.AppendSigned(append(b, `,"start":`...), int64(j.Start))
		b = jsonenc.AppendSigned(append(b, `,"fin":`...), int64(j.Finish))
		b = jsonenc.AppendSigned(append(b, `,"dl":`...), int64(j.Deadline))
		if j.Missed {
			b = append(b, `,"miss":true`...)
		}
		if j.Preempts != 0 {
			b = jsonenc.AppendSigned(append(b, `,"pre":`...), int64(j.Preempts))
		}
	case KindReconfig:
		r := &ev.Reconfig
		b = jsonenc.AppendDec(append(b, `{"type":"reconfig","seq":`...), ev.Seq)
		b = appendNode(b, ev)
		b = jsonenc.AppendSigned(append(b, `,"epoch":`...), int64(r.Epoch))
		b = jsonenc.AppendSigned(append(b, `,"at":`...), int64(r.At))
		b = jsonenc.AppendStringList(append(b, `,"admitted":`...), r.Admitted)
		b = jsonenc.AppendStringList(append(b, `,"retuned":`...), r.Retuned)
		b = jsonenc.AppendStringList(append(b, `,"retiring":`...), r.Retiring)
		b = jsonenc.AppendDec(append(b, `,"mode":`...), uint64(r.Mode))
		b = jsonenc.AppendSigned(append(b, `,"pause":`...), int64(r.Pause))
	case KindRetire:
		r := &ev.Retire
		b = jsonenc.AppendDec(append(b, `{"type":"retire","seq":`...), ev.Seq)
		b = appendNode(b, ev)
		b = jsonenc.AppendString(append(b, `,"task":`...), r.Task)
		b = jsonenc.AppendSigned(append(b, `,"epoch":`...), int64(r.Epoch))
		b = jsonenc.AppendSigned(append(b, `,"at":`...), int64(r.At))
	case KindAccel:
		a := &ev.Accel
		b = jsonenc.AppendDec(append(b, `{"type":"accel","seq":`...), ev.Seq)
		b = appendNode(b, ev)
		b = jsonenc.AppendString(append(b, `,"kind":`...), a.Kind.String())
		b = jsonenc.AppendString(append(b, `,"accel":`...), a.Accel)
		b = jsonenc.AppendString(append(b, `,"pool":`...), a.Pool)
		b = jsonenc.AppendString(append(b, `,"task":`...), a.Task)
		b = jsonenc.AppendSigned(append(b, `,"job":`...), a.Job)
		b = jsonenc.AppendSigned(append(b, `,"prio":`...), a.Prio)
		b = jsonenc.AppendSigned(append(b, `,"at":`...), int64(a.At))
	case KindFrame:
		f := &ev.Frame
		b = jsonenc.AppendDec(append(b, `{"type":"frame","seq":`...), ev.Seq)
		b = appendNode(b, ev)
		b = jsonenc.AppendString(append(b, `,"dir":`...), f.Dir.String())
		b = jsonenc.AppendSigned(append(b, `,"origin":`...), int64(f.Origin))
		b = jsonenc.AppendSigned(append(b, `,"dst":`...), int64(f.Dst))
		b = jsonenc.AppendString(append(b, `,"topic":`...), f.Topic)
		b = jsonenc.AppendSigned(append(b, `,"pub":`...), int64(f.Pub))
		b = jsonenc.AppendDec(append(b, `,"fseq":`...), f.FSeq)
		b = jsonenc.AppendDec(append(b, `,"epoch":`...), f.Epoch)
		b = jsonenc.AppendSigned(append(b, `,"sent":`...), f.SentAt)
		b = jsonenc.AppendSigned(append(b, `,"at":`...), f.At)
	case KindClusterEpoch:
		c := &ev.CEpoch
		b = jsonenc.AppendDec(append(b, `{"type":"cepoch","seq":`...), ev.Seq)
		b = appendNode(b, ev)
		b = jsonenc.AppendDec(append(b, `,"epoch":`...), c.Epoch)
		b = jsonenc.AppendSigned(append(b, `,"at":`...), c.At)
	default:
		b = jsonenc.AppendString(append(b, `{"type":`...), ev.Kind.String())
		b = jsonenc.AppendDec(append(b, `,"seq":`...), ev.Seq)
	}
	return append(b, '}')
}

// AppendSummary appends the stream trailer object (no trailing newline):
// the pipeline's final counters, which a replay checks the reloaded stream
// against to prove losslessness.
func AppendSummary(b []byte, st Stats) []byte {
	b = jsonenc.AppendDec(append(b, `{"type":"summary","published":`...), st.Published)
	b = jsonenc.AppendDec(append(b, `,"exported":`...), st.Exported)
	b = jsonenc.AppendDec(append(b, `,"dropped":`...), st.Dropped)
	b = jsonenc.AppendDec(append(b, `,"batches":`...), st.Batches)
	return append(b, '}')
}
