package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func discardLogf(string, ...any) {}

func mustOpen(t *testing.T, path string) *checkpoint {
	t.Helper()
	c, err := openCheckpoint(path, discardLogf)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCheckpointV2RoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	c := mustOpen(t, path)
	if err := c.record("a", 11, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.record("b", 22, &BeaconStamp{Chain: 0xfeed, Count: 150}); err != nil {
		t.Fatal(err)
	}
	if err := c.close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(string(data), "\n", 2)[0]
	if !strings.Contains(first, `"itpsim_checkpoint":2`) {
		t.Errorf("journal must start with a v2 header, got %q", first)
	}

	c2 := mustOpen(t, path)
	defer c2.close()
	var v int
	beacon, ok, err := c2.lookup("a", &v)
	if err != nil || !ok || v != 11 || beacon != nil {
		t.Errorf("lookup a = (%v, %v, %v), v=%d", beacon, ok, err, v)
	}
	beacon, ok, err = c2.lookup("b", &v)
	if err != nil || !ok || v != 22 {
		t.Fatalf("lookup b = (%v, %v), v=%d, err=%v", beacon, ok, v, err)
	}
	if beacon == nil || beacon.Chain != 0xfeed || beacon.Count != 150 {
		t.Errorf("beacon stamp did not survive the journal: %+v", beacon)
	}
	if _, ok, _ := c2.lookup("absent", &v); ok {
		t.Error("absent key should not be found")
	}
}

// TestCheckpointHeaderlessDiscarded: a journal without the version
// header — the pre-v2 format, or garbage — is discarded with a log line
// and never trusted, then rewritten as a fresh journal.
func TestCheckpointHeaderlessDiscarded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	headerless := `{"key":"old-a","result":5}` + "\n" + `{"key":"old-b","result":{"n":6}}` + "\n"
	if err := os.WriteFile(path, []byte(headerless), 0o644); err != nil {
		t.Fatal(err)
	}
	var logs []string
	c, err := openCheckpoint(path, func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) })
	if err != nil {
		t.Fatal(err)
	}
	var v int
	if _, ok, _ := c.lookup("old-a", &v); ok || len(c.done) != 0 {
		t.Errorf("headerless journal entries must not be trusted, kept %d", len(c.done))
	}
	if len(logs) != 1 || !strings.Contains(logs[0], "discarding journal") {
		t.Errorf("discard should log one line, got %q", logs)
	}
	if err := c.record("new", 7, nil); err != nil {
		t.Fatal(err)
	}
	c.close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], `"itpsim_checkpoint":2`) {
		t.Fatalf("rewritten journal should hold the header and the new record:\n%s", data)
	}
	c2 := mustOpen(t, path)
	defer c2.close()
	if _, ok, err := c2.lookup("new", &v); !ok || err != nil || v != 7 {
		t.Errorf("record after discard not recalled: ok=%v err=%v v=%d", ok, err, v)
	}
}

// writeV2 builds a journal with the given keys via the real writer.
func writeV2(t *testing.T, path string, keys ...string) {
	t.Helper()
	c := mustOpen(t, path)
	for i, k := range keys {
		if err := c.record(k, i+1, &BeaconStamp{Chain: uint64(i), Count: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.close(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointTruncatesAtCorruptRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	writeV2(t, path, "a", "b", "c")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(data, []byte("\n"))
	// Flip a payload byte inside record "b" (line index 2: header, a, b).
	target := lines[2]
	target[bytes.IndexByte(target, 'b')] ^= 0x20
	if err := os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	c := mustOpen(t, path)
	defer c.close()
	var v int
	if _, ok, _ := c.lookup("a", &v); !ok || v != 1 {
		t.Errorf("record before the corruption must survive, got ok=%v v=%d", ok, v)
	}
	for _, key := range []string{"b", "c"} {
		if _, ok, _ := c.lookup(key, &v); ok {
			t.Errorf("record %q at/after the corruption must be dropped", key)
		}
	}
	// Recovery rewrote the journal to its valid prefix, atomically.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(bytes.Split(bytes.TrimSpace(after), []byte("\n"))); got != 2 {
		t.Errorf("recovered journal has %d lines, want header + 1 record:\n%s", got, after)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("recovery temp file left behind: %v", err)
	}
}

func TestCheckpointTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	writeV2(t, path, "a", "b")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"p":{"key":"half","re`)
	f.Close()

	c := mustOpen(t, path)
	var v int
	for key, want := range map[string]int{"a": 1, "b": 2} {
		if _, ok, _ := c.lookup(key, &v); !ok || v != want {
			t.Errorf("%s lost to a torn tail: ok=%v v=%d", key, ok, v)
		}
	}
	if _, ok, _ := c.lookup("half", &v); ok {
		t.Error("torn record must not be recalled")
	}
	// Appends after recovery land on a clean tail.
	if err := c.record("after", 9, nil); err != nil {
		t.Fatal(err)
	}
	c.close()
	c2 := mustOpen(t, path)
	defer c2.close()
	if _, ok, _ := c2.lookup("after", &v); !ok || v != 9 {
		t.Errorf("append after recovery lost: ok=%v v=%d", ok, v)
	}
}

func TestCheckpointVersionSkewStartsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	content := `{"itpsim_checkpoint":3}` + "\n" + `{"anything":"from the future"}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	c := mustOpen(t, path)
	defer c.close()
	if len(c.done) != 0 {
		t.Errorf("future-version journal must be discarded, kept %d entries", len(c.done))
	}
	var v int
	if _, ok, _ := c.lookup("anything", &v); ok {
		t.Error("future-version records must not be trusted")
	}
}

func TestCheckpointCleanFileNotRewritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	writeV2(t, path, "a", "b")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c := mustOpen(t, path)
	c.close()
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("reopening a clean journal must not alter it")
	}
}

// FuzzCheckpointReader feeds arbitrary journal bytes — torn tails, bit
// flips, version skew, nested garbage — through the parser and asserts
// the recovery contract: never panic, and the canonical re-encoding must
// be a fixed point (parsing what recovery writes yields the same entries
// and the same bytes, so a second recovery never loses more data).
func FuzzCheckpointReader(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"itpsim_checkpoint":2}` + "\n"))
	f.Add([]byte(`{"itpsim_checkpoint":2}` + "\n" + `{"p":{"key":"a","result":1},"crc":0}` + "\n"))
	f.Add([]byte("not a journal\n" + `{"itpsim_checkpoint":2}` + "\n"))
	f.Add([]byte(`{"itpsim_checkpoint":9}` + "\n" + `{"p":{"key":"a","result":1},"crc":123}`))
	// A genuine record with a correct CRC, then garbage.
	payload := []byte(`{"key":"real","result":42}`)
	rec, _ := json.Marshal(checkpointRecord{P: payload, CRC: crc32.ChecksumIEEE(payload)})
	f.Add([]byte(`{"itpsim_checkpoint":2}` + "\n" + string(rec) + "\n" + `{"p":{"key":"torn`))

	f.Fuzz(func(t *testing.T, data []byte) {
		done, _, canonical := parseCheckpoint(data, func(string, ...any) {})
		done2, _, canonical2 := parseCheckpoint(canonical, func(string, ...any) {})
		if !bytes.Equal(canonical, canonical2) {
			t.Fatalf("canonical encoding is not a fixed point:\n%q\n%q", canonical, canonical2)
		}
		if len(done) != len(done2) {
			t.Fatalf("re-parsing recovery output lost entries: %d -> %d", len(done), len(done2))
		}
		for k, e := range done {
			e2, ok := done2[k]
			if !ok {
				t.Fatalf("key %q lost on re-parse", k)
			}
			if !bytes.Equal(e.result, e2.result) {
				t.Fatalf("key %q result changed on re-parse", k)
			}
		}
	})
}
