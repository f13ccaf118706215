package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"

	"progconv/internal/obs"
)

// The encoding/json renderings that AppendEvent, the report writer and
// DecodeJobSpec replaced, kept as test code so each is checked against
// a reference written separately from it (TestAppendEventMatchesOracle,
// FuzzEventOracle, TestReportWriterMatchesOracle, FuzzReportOracle,
// TestDecodeJobSpecMatchesOracle, FuzzJobSpec).

// eventJSON is the v1 JSONL event shape as a reflected struct: field
// order and omitempty tags are the contract AppendEvent reproduces.
type eventJSON struct {
	V        int    `json:"v"`
	Seq      uint64 `json:"seq"`
	TNs      int64  `json:"t_ns,omitempty"`
	Prog     string `json:"prog"`
	Kind     string `json:"kind"`
	Stage    string `json:"stage,omitempty"`
	DurNs    int64  `json:"dur_ns,omitempty"`
	Label    string `json:"label,omitempty"`
	Detail   string `json:"detail,omitempty"`
	Accepted *bool  `json:"accepted,omitempty"`
}

func eventWire(ev obs.Event, omitTiming bool) eventJSON {
	j := eventJSON{V: Version, Seq: ev.Seq, Prog: ev.Prog, Kind: ev.Kind.String(),
		Label: ev.Label, Detail: ev.Detail}
	if !omitTiming {
		j.TNs = int64(ev.T)
		j.DurNs = int64(ev.Dur)
	}
	if ev.Kind == obs.EvStageStart || ev.Kind == obs.EvStageEnd {
		j.Stage = ev.Stage.String()
	}
	if ev.Kind == obs.EvDecision {
		a := ev.Accepted
		j.Accepted = &a
	}
	return j
}

// encodeBuf pairs a reusable buffer with an encoder bound to it.
type encodeBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encodePool = sync.Pool{New: func() any {
	b := &encodeBuf{}
	b.enc = json.NewEncoder(&b.buf)
	return b
}}

// oracleEncodeEvent is the EncodeEvent that AppendEvent replaced: one
// event as a JSON line through a pooled json.Encoder.
func oracleEncodeEvent(w io.Writer, ev obs.Event, omitTiming bool) error {
	b := encodePool.Get().(*encodeBuf)
	defer encodePool.Put(b)
	b.buf.Reset()
	if err := b.enc.Encode(eventWire(ev, omitTiming)); err != nil {
		return err
	}
	_, err := w.Write(b.buf.Bytes())
	return err
}

// oracleEncodeReport is the report encoding that appendReport
// replaced: reflection, then the Encoder's indent pass.
func oracleEncodeReport(doc *Report) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		panic(err) // a Report holds only strings, numbers and bools
	}
	return buf.Bytes()
}

// oracleDecodeJobSpec is the submission decoding that DecodeJobSpec
// replaced in the daemon's and the coordinator's submit handlers.
func oracleDecodeJobSpec(body []byte) (JobSpec, error) {
	var spec JobSpec
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&spec)
	return spec, err
}
