package state

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/tuple"
)

// Codec serializes a key's extracted windowed state for migration
// across a process boundary: the payload that rides in
// protocol.StateTransfer.Payload when source and destination tasks do
// not share an address space. Alongside the store window it carries
// the key's tracked windowed-memory figure, so the destination's
// statistics tracker adopts the key with the same Mem the source
// reported — keeping cross-process load reports bit-identical to the
// in-memory reference path.
//
// Each payload is a self-contained gob stream (fresh encoder and
// decoder per call): a decoding process has never seen the encoder's
// type state, so nothing may be amortized across payloads. Entry
// values are interface-typed; operators whose state values are not
// already gob-registered basic types must call RegisterValue once at
// startup on each side.
//
// This codec deliberately stays gob (the payload crosses inside a
// kind-dispatched gob frame of the protocol wire): state transfers
// happen once per migrated key per rebalance, not per interval, and
// gob's self-describing stream is the right safety trade for arbitrary
// operator state. The wire reserves its hand-rolled encodings for the
// per-interval message set.
type Codec struct{}

// wireBucket mirrors bucket with exported fields for encoding.
type wireBucket struct {
	Interval int64
	Entries  []Entry
	Size     int64
}

// wireTransfer is the on-wire form of one key's migrating state.
type wireTransfer struct {
	Key     tuple.Key
	Size    int64
	Mem     int64
	Buckets []wireBucket
}

// Encode serializes a Migrated plus the key's tracked windowed memory.
func (Codec) Encode(m Migrated, mem int64) ([]byte, error) {
	wt := wireTransfer{Key: m.Key, Size: m.Size, Mem: mem}
	if len(m.buckets) > 0 {
		wt.Buckets = make([]wireBucket, len(m.buckets))
		for i, b := range m.buckets {
			wt.Buckets[i] = wireBucket{Interval: b.interval, Entries: b.entries, Size: b.size}
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&wt); err != nil {
		return nil, fmt.Errorf("state: encode transfer for key %d: %w", m.Key, err)
	}
	return buf.Bytes(), nil
}

// Decode reconstructs a Migrated and the traveling windowed-memory
// figure from an Encode payload. The returned Migrated owns fresh
// bucket storage: injecting it never aliases the source store.
func (Codec) Decode(p []byte) (Migrated, int64, error) {
	var wt wireTransfer
	if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&wt); err != nil {
		return Migrated{}, 0, fmt.Errorf("state: decode transfer: %w", err)
	}
	m := Migrated{Key: wt.Key, Size: wt.Size}
	if len(wt.Buckets) > 0 {
		m.buckets = make([]bucket, len(wt.Buckets))
		for i, b := range wt.Buckets {
			m.buckets[i] = bucket{interval: b.Interval, entries: b.Entries, size: b.Size}
		}
	}
	return m, wt.Mem, nil
}

// RegisterValue registers a concrete Entry.Value type with gob so it
// can cross a process boundary inside a serialized window. Calling it
// again with the same type is a no-op; wrap it so operator packages
// need not import encoding/gob.
func RegisterValue(v any) { gob.Register(v) }

func init() {
	// encoding/gob registers the basic types itself; tuple.Key and
	// []tuple.Key are the other values the in-tree operators keep in
	// their windows.
	RegisterValue(tuple.Key(0))
	RegisterValue([]tuple.Key(nil))
}
