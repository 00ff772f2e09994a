package shard

import (
	"fmt"
	"sync"

	"itpsim/internal/workload"
)

// Source names a deterministic stream factory. New must return a fresh,
// clonable stream (workload.Cloner) that produces the identical sequence
// on every call, as the catalogue generators do. Name must uniquely
// identify that sequence: it is the split-index cache key and part of
// every segment's checkpoint key.
type Source struct {
	Name string
	New  func() workload.Stream
}

// Index caches positioned generator snapshots per (source, offsets), so
// repeated split runs over the same workload — a policy sweep's whole
// column — pay the serial positioning pass once. Snapshots are pristine:
// every retrieval clones them again, never consumes them. Safe for
// concurrent use.
type Index struct {
	mu sync.Mutex
	m  map[string][]workload.Stream
}

// NewIndex returns an empty split index.
func NewIndex() *Index {
	return &Index{m: make(map[string][]workload.Stream)}
}

// Streams returns one stream per offset, each positioned at its offset of
// src's serial sequence and cloned from the cached snapshots. The
// returned streams are the caller's to consume, and are themselves
// clonable.
func (ix *Index) Streams(src Source, offsets []uint64) ([]workload.Stream, error) {
	key := fmt.Sprintf("%s|%v", src.Name, offsets)
	ix.mu.Lock()
	snaps, ok := ix.m[key]
	ix.mu.Unlock()
	if !ok {
		var err error
		if snaps, err = position(src, offsets); err != nil {
			return nil, err
		}
		ix.mu.Lock()
		if prev, raced := ix.m[key]; raced {
			snaps = prev // keep the first writer's snapshots
		} else {
			ix.m[key] = snaps
		}
		ix.mu.Unlock()
	}
	out := make([]workload.Stream, len(snaps))
	for i, s := range snaps {
		c, okc := workload.CloneStream(s)
		if !okc {
			return nil, fmt.Errorf("shard: cached snapshot %d of %s is not clonable", i, src.Name)
		}
		out[i] = c
	}
	return out, nil
}

// position snapshots the generator at every offset in one forward pass
// over the serial stream (O(max offset) total). Split runs start from
// catalogue generators, which are clonable; a source that is not is
// rejected by name.
func position(src Source, offsets []uint64) ([]workload.Stream, error) {
	s := src.New()
	if s == nil {
		return nil, fmt.Errorf("shard: source %s returned a nil stream", src.Name)
	}
	if _, ok := workload.CloneStream(s); !ok {
		return nil, fmt.Errorf("shard: source %s is not clonable; split runs position segments by snapshotting the stream", src.Name)
	}
	out := make([]workload.Stream, len(offsets))
	var pos uint64
	for i, off := range offsets {
		if off < pos {
			return nil, fmt.Errorf("shard: offsets not ascending (%d after %d)", off, pos)
		}
		if want := off - pos; want > 0 {
			if got := workload.Skip(s, want); got != want {
				return nil, fmt.Errorf("shard: source %s ended after %d instructions, need offset %d", src.Name, pos+got, off)
			}
			pos = off
		}
		c, ok := workload.CloneStream(s)
		if !ok {
			return nil, fmt.Errorf("shard: source %s stopped being clonable at offset %d", src.Name, off)
		}
		out[i] = c
	}
	return out, nil
}
