package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
)

// checkpointVersion is the on-disk journal format: a header line, then
// one CRC-32-checksummed record per completed job carrying its beacon
// stamp, with atomic truncate-at-last-valid-record recovery. A journal
// without this header (including the headerless format of builds before
// version 2) is discarded on open, like one from a different version.
const checkpointVersion = 2

// checkpointHeader is the first line of a journal.
type checkpointHeader struct {
	Version int `json:"itpsim_checkpoint"`
}

// checkpointPayload is the checksummed body of one record. Result is
// kept raw so the CRC covers the exact bytes that were journaled, not a
// re-encoding.
type checkpointPayload struct {
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result"`
	Beacon *BeaconStamp    `json:"beacon,omitempty"`
}

// checkpointRecord is one journal line: the payload embedded verbatim
// plus its CRC-32 (IEEE) — json.RawMessage round-trips byte-exactly, so
// the checksum computed at write time is reproducible at read time, and
// a torn or bit-flipped line is detected rather than trusted.
type checkpointRecord struct {
	P   json.RawMessage `json:"p"`
	CRC uint32          `json:"crc"`
}

// checkpointEntry is the in-memory view of one completed job.
type checkpointEntry struct {
	result json.RawMessage
	beacon *BeaconStamp
}

// checkpoint is an append-only journal of completed jobs. Lines are
// flushed per record, so a crash loses at most the record being written;
// recovery on open drops everything from the first invalid record on and
// commits the valid prefix atomically (temp file + rename) before
// appending resumes.
type checkpoint struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	done map[string]checkpointEntry
}

// parseCheckpoint decodes journal bytes. It returns the decoded entries,
// how many jobs the valid prefix held, and the canonical re-encoding of
// that prefix (header + records). The parse stops at the first
// unreadable or checksum-failing record — a torn tail must not hide
// valid records behind it, and a corrupt middle means everything after
// it is untrustworthy. A missing or foreign header discards everything.
func parseCheckpoint(data []byte, logf func(string, ...any)) (map[string]checkpointEntry, int, []byte) {
	done := make(map[string]checkpointEntry)
	var canonical bytes.Buffer
	hdr, _ := json.Marshal(checkpointHeader{Version: checkpointVersion})
	canonical.Write(hdr)
	canonical.WriteByte('\n')

	keep := func(p checkpointPayload) {
		done[p.Key] = checkpointEntry{result: p.Result, beacon: p.Beacon}
		raw, err := json.Marshal(p)
		if err != nil {
			return
		}
		line, err := json.Marshal(checkpointRecord{P: raw, CRC: crc32.ChecksumIEEE(raw)})
		if err != nil {
			return
		}
		canonical.Write(line)
		canonical.WriteByte('\n')
	}

	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	header := false
	line := 0
	records := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(bytes.TrimSpace(b)) == 0 {
			continue
		}
		if !header {
			// A foreign version, or no header at all: nothing after it can
			// be trusted to mean what this reader thinks it means. Start
			// fresh.
			var h checkpointHeader
			if json.Unmarshal(b, &h) != nil || h.Version != checkpointVersion {
				logf("harness: checkpoint has no version %d header (found version %d); discarding journal", checkpointVersion, h.Version)
				break
			}
			header = true
			continue
		}
		var rec checkpointRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			logf("harness: checkpoint line %d unreadable (%v), truncating journal here", line, err)
			break
		}
		if got := crc32.ChecksumIEEE(rec.P); got != rec.CRC {
			logf("harness: checkpoint line %d checksum mismatch (%08x != %08x), truncating journal here", line, got, rec.CRC)
			break
		}
		var p checkpointPayload
		if err := json.Unmarshal(rec.P, &p); err != nil || p.Key == "" {
			logf("harness: checkpoint line %d payload invalid, truncating journal here", line)
			break
		}
		records++
		keep(p)
	}
	return done, records, canonical.Bytes()
}

// commitCheckpoint atomically replaces the journal at path with data:
// write to a temp file in the same directory, sync, then rename over the
// original, so a crash mid-recovery leaves either the old journal or the
// new one, never a half-written hybrid.
func commitCheckpoint(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// openCheckpoint loads any existing journal at path — recovering from
// torn tails and corrupt records, discarding a foreign or headerless
// journal — and opens the recovered journal for appending, creating a
// fresh one when absent.
func openCheckpoint(path string, logf func(string, ...any)) (*checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	done, records, canonical := parseCheckpoint(data, logf)
	if !bytes.Equal(data, canonical) {
		// Absent, torn, corrupt, or foreign: commit the canonical valid
		// prefix before appending to it.
		if err := commitCheckpoint(path, canonical); err != nil {
			return nil, err
		}
	}
	if records > 0 {
		logf("harness: checkpoint %s: resuming with %d completed job(s)", path, len(done))
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &checkpoint{f: f, w: bufio.NewWriter(f), done: done}, nil
}

// lookup recalls a completed result into out; ok reports presence and
// beacon carries the completed run's state fingerprint when one was
// journaled.
func (c *checkpoint) lookup(key string, out any) (beacon *BeaconStamp, ok bool, err error) {
	c.mu.Lock()
	e, present := c.done[key]
	c.mu.Unlock()
	if !present {
		return nil, false, nil
	}
	if err := json.Unmarshal(e.result, out); err != nil {
		return nil, false, fmt.Errorf("decode result for %q: %w", key, err)
	}
	return e.beacon, true, nil
}

// record journals one completed job and flushes it to disk.
func (c *checkpoint) record(key string, result any, beacon *BeaconStamp) error {
	raw, err := json.Marshal(result)
	if err != nil {
		return err
	}
	payload, err := json.Marshal(checkpointPayload{Key: key, Result: raw, Beacon: beacon})
	if err != nil {
		return err
	}
	line, err := json.Marshal(checkpointRecord{P: payload, CRC: crc32.ChecksumIEEE(payload)})
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done[key] = checkpointEntry{result: raw, beacon: beacon}
	// c.mu exists precisely to serialise writers of the shared journal
	// stream AND keep the done map in sync with what reached the file;
	// the write must happen inside the same section as the map insert.
	//itp:lock-io c.mu serialises the checkpoint journal; entry map and file line must commit together
	if _, err := c.w.Write(append(line, '\n')); err != nil {
		return err
	}
	//itp:lock-io c.mu serialises the checkpoint journal; flush is part of the committed write
	return c.w.Flush()
}

func (c *checkpoint) close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Holding c.mu across the final flush keeps a concurrent record()
	// from interleaving a write with teardown.
	//itp:lock-io c.mu serialises the checkpoint journal through teardown
	if err := c.w.Flush(); err != nil {
		c.f.Close()
		return err
	}
	return c.f.Close()
}
