package wire

import (
	"io"
	"strconv"
	"sync"

	"progconv/internal/obs"
)

// AppendEvent appends one event as its stable v1 JSON line, newline
// included, and returns the extended buffer. It is the one event
// writer: the CLI's -events stream, the daemon's event endpoints and
// the golden files all reach it. Fields appear in the pinned order v,
// seq, t_ns, prog, kind, stage, dur_ns, label, detail, accepted, with
// the omitempty rules and string escaping of the encoding/json
// rendering it replaced, so the bytes are unchanged; a warm buffer
// takes no allocation. omitTiming drops the wall-clock fields (t_ns,
// dur_ns) for byte-stable output.
func AppendEvent(dst []byte, ev obs.Event, omitTiming bool) []byte {
	dst = append(dst, `{"v":`...)
	dst = strconv.AppendInt(dst, Version, 10)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendUint(dst, ev.Seq, 10)
	if !omitTiming && ev.T != 0 {
		dst = append(dst, `,"t_ns":`...)
		dst = strconv.AppendInt(dst, int64(ev.T), 10)
	}
	dst = append(dst, `,"prog":`...)
	dst = appendString(dst, ev.Prog)
	dst = append(dst, `,"kind":`...)
	dst = appendString(dst, ev.Kind.String())
	if ev.Kind == obs.EvStageStart || ev.Kind == obs.EvStageEnd {
		dst = append(dst, `,"stage":`...)
		dst = appendString(dst, ev.Stage.String())
	}
	if !omitTiming && ev.Dur != 0 {
		dst = append(dst, `,"dur_ns":`...)
		dst = strconv.AppendInt(dst, int64(ev.Dur), 10)
	}
	if ev.Label != "" {
		dst = append(dst, `,"label":`...)
		dst = appendString(dst, ev.Label)
	}
	if ev.Detail != "" {
		dst = append(dst, `,"detail":`...)
		dst = appendString(dst, ev.Detail)
	}
	if ev.Kind == obs.EvDecision {
		dst = append(dst, `,"accepted":`...)
		dst = strconv.AppendBool(dst, ev.Accepted)
	}
	return append(dst, "}\n"...)
}

// EncodeJSONL writes events one JSON object per line, in one Write.
// omitTiming drops the wall-clock fields so the output is byte-stable
// across runs — the representation golden-file tests pin.
func EncodeJSONL(w io.Writer, events []obs.Event, omitTiming bool) error {
	bp := getBuf()
	b := *bp
	for _, ev := range events {
		b = AppendEvent(b, ev, omitTiming)
	}
	_, err := w.Write(b)
	putBuf(bp, b)
	return err
}

// JSONLSink streams events to a writer as wire-v1 JSON lines in
// arrival order, one Write per event. The first write error sticks and
// silences the rest; check Err after the run.
type JSONLSink struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
	err error
}

// NewJSONLSink returns a sink encoding onto w (wrap w in a
// bufio.Writer for file output).
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: w}
}

// Emit implements obs.Sink.
func (s *JSONLSink) Emit(ev obs.Event) {
	s.mu.Lock()
	if s.err == nil {
		s.buf = AppendEvent(s.buf[:0], ev, false)
		_, s.err = s.w.Write(s.buf)
	}
	s.mu.Unlock()
}

// Err returns the first write error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
