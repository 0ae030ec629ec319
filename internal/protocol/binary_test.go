package protocol

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/tuple"
)

// binaryPair returns a sender and receiver codec over one in-memory
// stream.
func binaryPair(buf *bytes.Buffer) (*Codec, *Codec) {
	return NewCodec(buf), NewCodec(readerOnly{buf})
}

// TestBinaryRoundTripAllKinds drives every message kind through the
// codec — hand-rolled hot kinds and gob-framed rare kinds alike
// — and requires exact reproduction.
func TestBinaryRoundTripAllKinds(t *testing.T) {
	var buf bytes.Buffer
	send, recv := binaryPair(&buf)
	for kind := 0; kind < 19; kind++ {
		for _, n := range []int{0, 1, 33} {
			orig := buildMessage(uint64(kind*131+n), kind, n)
			if err := send.Send(orig); err != nil {
				t.Fatalf("send %s (n=%d): %v", orig.Kind(), n, err)
			}
			got, err := recv.Recv()
			if err != nil {
				t.Fatalf("recv %s (n=%d): %v", orig.Kind(), n, err)
			}
			if got.Kind() != orig.Kind() {
				t.Fatalf("kind %s decoded as %s", orig.Kind(), got.Kind())
			}
			if !reflect.DeepEqual(normalize(orig), normalize(got)) {
				t.Fatalf("%s (n=%d) altered:\n sent %#v\n got  %#v", orig.Kind(), n, orig, got)
			}
		}
	}
}

// TestBinaryValueTags round-trips every tagged tuple.Value type plus
// the gob escape hatch, including negative and boundary numerics.
func TestBinaryValueTags(t *testing.T) {
	values := []any{
		nil,
		int64(0), int64(-1), int64(1 << 62), int64(-1 << 62),
		int(42), int(-42),
		uint64(0), uint64(1<<64 - 1),
		float64(0), float64(-3.25), float64(1e308),
		"", "counts", strings.Repeat("x", 300),
		[]byte{}, []byte{0, 255, 7},
		tuple.Key(0), tuple.Key(1<<64 - 1),
		[]tuple.Key{}, []tuple.Key{1, 1 << 40},
	}
	var buf bytes.Buffer
	send, recv := binaryPair(&buf)
	ts := make([]tuple.Tuple, len(values))
	for i, v := range values {
		ts[i] = tuple.Tuple{Key: tuple.Key(i), Value: v}
	}
	if err := send.Send(&Message{Batch: &TupleBatch{Tuples: ts}}); err != nil {
		t.Fatalf("send: %v", err)
	}
	got, err := recv.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	for i, v := range values {
		g := got.Batch.Tuples[i].Value
		// Empty slices may decode nil; normalize.
		if b, ok := v.([]byte); ok && len(b) == 0 {
			if gb, ok := g.([]byte); !ok || len(gb) != 0 {
				t.Fatalf("value %d: %#v → %#v", i, v, g)
			}
			continue
		}
		if k, ok := v.([]tuple.Key); ok && len(k) == 0 {
			if gk, ok := g.([]tuple.Key); !ok || len(gk) != 0 {
				t.Fatalf("value %d: %#v → %#v", i, v, g)
			}
			continue
		}
		if !reflect.DeepEqual(v, g) {
			t.Fatalf("value %d: sent %#v (%T), got %#v (%T)", i, v, v, g, g)
		}
	}
}

// TestBinaryCoalescedBounds pins the coalescing contract: a frame built
// chunk by chunk with the exported header/chunk helpers decodes into
// one TupleBatch whose Bounds replay the exact chunk sequence.
func TestBinaryCoalescedBounds(t *testing.T) {
	chunks := [][]tuple.Tuple{
		{tuple.New(1, int64(10)), tuple.New(2, int64(20))},
		{tuple.New(3, nil)},
		{},
		{tuple.New(4, "s"), tuple.New(5, []tuple.Key{6, 7}), tuple.New(6, nil)},
	}
	frame := AppendBatchHeader(nil)
	for _, ch := range chunks {
		var err error
		if frame, err = AppendBatchChunk(frame, ch); err != nil {
			t.Fatalf("append chunk: %v", err)
		}
	}
	PatchBatchHeader(frame, len(chunks))

	var buf bytes.Buffer
	send, recv := binaryPair(&buf)
	if err := send.SendFrame(frame); err != nil {
		t.Fatalf("send frame: %v", err)
	}
	got, err := recv.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if got.Batch == nil {
		t.Fatalf("decoded %s, want batch", got.Kind())
	}
	var replayed [][]tuple.Tuple
	got.Batch.Chunks(func(ts []tuple.Tuple) {
		replayed = append(replayed, append([]tuple.Tuple(nil), ts...))
	})
	if len(replayed) != len(chunks) {
		t.Fatalf("replayed %d chunks, want %d", len(replayed), len(chunks))
	}
	for i := range chunks {
		if len(replayed[i]) != len(chunks[i]) {
			t.Fatalf("chunk %d: %d tuples, want %d", i, len(replayed[i]), len(chunks[i]))
		}
		for j := range chunks[i] {
			if !reflect.DeepEqual(chunks[i][j], replayed[i][j]) {
				t.Fatalf("chunk %d tuple %d: %+v, want %+v", i, j, replayed[i][j], chunks[i][j])
			}
		}
	}
}

// TestBinaryModeSwitch pins the handshake pattern: a stream that opens
// with gob frames (Hello/Welcome) and continues with hand-rolled binary
// frames decodes cleanly, with every frame queued on the stream before
// the receiver starts. Each frame is self-describing by its kind byte,
// so the codec never changes mode between them.
func TestBinaryModeSwitch(t *testing.T) {
	var buf bytes.Buffer
	send := NewCodec(&buf)
	recv := NewCodec(readerOnly{&buf})

	batch := &Message{Batch: &TupleBatch{Tuples: []tuple.Tuple{tuple.New(7, int64(9))}}}
	for _, m := range []*Message{
		{Hello: &Hello{Proto: 2, Role: "data"}},
		batch,
		{Welcome: &Welcome{Proto: 2, ID: 4}},
		{FlushReq: &Flush{Seq: 3}},
	} {
		if err := send.Send(m); err != nil {
			t.Fatalf("send %s: %v", m.Kind(), err)
		}
	}

	m, err := recv.Recv()
	if err != nil || m.Hello == nil || m.Hello.Role != "data" {
		t.Fatalf("recv hello = %v, %v", m, err)
	}
	m, err = recv.Recv()
	if err != nil || m.Batch == nil || m.Batch.Tuples[0].Key != 7 {
		t.Fatalf("recv batch = %v, %v", m, err)
	}
	m, err = recv.Recv()
	if err != nil || m.Welcome == nil || m.Welcome.ID != 4 {
		t.Fatalf("recv welcome = %v, %v", m, err)
	}
	m, err = recv.Recv()
	if err != nil || m.FlushReq == nil || m.FlushReq.Seq != 3 {
		t.Fatalf("recv flush = %v, %v", m, err)
	}
}

// TestBinaryHostileInputs feeds corrupt frames to the binary decoder
// and requires clean errors — wrong kinds, hostile counts, truncated
// columns, trailing garbage — never a panic or a giant allocation.
func TestBinaryHostileInputs(t *testing.T) {
	cases := map[string][]byte{
		"empty frame":          {},
		"unknown kind":         {0x7f},
		"batch no header":      {kindBatch},
		"batch huge nsub":      {kindBatch, 0xff, 0xff, 0xff, 0xff},
		"batch huge ntuples":   {kindBatch, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff},
		"batch cut column":     {kindBatch, 0, 0, 0, 1, 0, 0, 0, 2, 5},
		"batch trailing bytes": append(mustBatchFrame(t), 0xaa),
		"batch bad value tag":  {kindBatch, 0, 0, 0, 1, 0, 0, 0, 1, 1, 2, 2, 2, 2, 0, 0x6f},
		"flush short":          {kindFlush, 1, 2, 3},
		"report cut":           {kindReport, 0x80},
		"report huge keystats": {kindReport, 2, 4, 6, 0, 0xff, 0xff, 0x7f},
		"ack cut":              {kindAck, 2},
		"resume trailing":      {kindResume, 2, 9},
		"start cut":            {kindStart, 2},
		"close trailing":       {kindClose, 2, 9},
		"harvest cut":          {kindHarvestReq, 2, 4},
		"harvested cut float":  {kindHarvestDone, 2, 4, 0, 0, 0, 0, 0, 2, 2, 1, 2, 3},
		"harvested huge list":  {kindHarvestDone, 2, 4, 0, 0xff, 0xff, 0x7f},
		"gob garbage":          {kindGob, 0xde, 0xad, 0xbe, 0xef},
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			var stream []byte
			stream = append(stream, byte(len(payload)>>24), byte(len(payload)>>16), byte(len(payload)>>8), byte(len(payload)))
			stream = append(stream, payload...)
			c := NewCodec(readerOnly{bytes.NewReader(stream)})
			if m, err := c.Recv(); err == nil {
				t.Fatalf("hostile frame decoded as %s", m.Kind())
			} else if errors.Is(err, io.EOF) && len(payload) > 0 {
				t.Fatalf("hostile frame read as clean EOF: %v", err)
			}
		})
	}
}

func mustBatchFrame(t *testing.T) []byte {
	t.Helper()
	frame := AppendBatchHeader(nil)
	frame, err := AppendBatchChunk(frame, []tuple.Tuple{tuple.New(1, nil)})
	if err != nil {
		t.Fatal(err)
	}
	PatchBatchHeader(frame, 1)
	return frame
}

// benchBatch builds a realistic steady-state batch: socialpipe-shaped
// tuples (small keys, cost 1, a stream tag on some). Scalar batches
// carry only nil and small-int64 values (the count→topk edge's shape),
// so a zero-alloc decode is possible; composite batches add
// []tuple.Key values (the parse→count edge), which inherently allocate
// one slice per value on decode.
func benchBatch(n int, composite bool) []tuple.Tuple {
	r := &fuzzRNG{s: 0x5eed}
	ts := make([]tuple.Tuple, n)
	for i := range ts {
		ts[i] = tuple.Tuple{
			Key: tuple.Key(r.next() % 4096), Cost: 1, StateSize: 1,
			Seq: uint64(i), EmitTick: 7,
		}
		switch {
		case i%2 == 0:
			ts[i].Stream = "counts"
			ts[i].Value = int64(r.next() % 100)
		case composite:
			ts[i].Value = []tuple.Key{tuple.Key(r.next() % 4096), tuple.Key(r.next() % 4096)}
		}
	}
	return ts
}

// discardRW swallows writes; reads never happen.
type discardRW struct{}

func (discardRW) Read(p []byte) (int, error)  { return 0, io.EOF }
func (discardRW) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkTupleBatchCodec measures the data-plane hot path: one
// 256-tuple TupleBatch encoded and decoded per iteration. Scalar
// batches must run amortized zero allocations per message in both
// directions (pooled scratch, retained decode storage).
func BenchmarkTupleBatchCodec(b *testing.B) {
	const batchSize = 256

	bench := func(b *testing.B, msg *Message) {
		b.Run("encode", func(b *testing.B) {
			c := NewCodec(discardRW{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Send(msg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.SentBytes())/float64(b.N)/batchSize, "bytes/tuple")
		})
		b.Run("roundtrip", func(b *testing.B) {
			var buf bytes.Buffer
			send, recv := binaryPair(&buf)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := send.Send(msg); err != nil {
					b.Fatal(err)
				}
				m, err := recv.Recv()
				if err != nil {
					b.Fatal(err)
				}
				if len(m.Batch.Tuples) != batchSize {
					b.Fatalf("decoded %d tuples", len(m.Batch.Tuples))
				}
			}
		})
	}

	for _, shape := range []struct {
		name      string
		composite bool
	}{{"scalar", false}, {"composite", true}} {
		msg := &Message{Batch: &TupleBatch{Tuples: benchBatch(batchSize, shape.composite)}}
		b.Run(shape.name+"/binary", func(b *testing.B) { bench(b, msg) })
	}
}
