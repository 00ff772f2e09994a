package shard

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"itpsim/internal/config"
	"itpsim/internal/harness"
	"itpsim/internal/metrics"
	"itpsim/internal/workload"
)

// Checkpoint-resume property tests: for an arbitrary partially-completed
// shard set, resuming against the same journal must recall exactly the
// journaled shards (no re-simulation, no misses), the recalled beacon
// stamps must match what an uninterrupted run produces, and the stitched
// result must be identical either way.

// resumeConfig is a small 4-shard run with beacons armed so stamps are
// journaled alongside each payload.
func resumeConfig() (Config, Plan) {
	return Config{System: config.Default(), BeaconInterval: 5_000},
		Plan{Shards: 4, Warmup: 10_000, Measure: 60_000}
}

func TestResumePartialShardSets(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates hundreds of thousands of instructions")
	}
	cfg, plan := resumeConfig()
	src := testSource(t, workload.NewCatalog(120, 20).ServerNames()[3])
	ix := NewIndex()

	// The uninterrupted reference: no checkpoint at all.
	ref, err := Run(cfg, plan, "resume", src, ix, harness.Options{})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	subsets := [][]int{{}, {0}, {3}, {1, 2}, {0, 1, 2, 3}}
	for _, done := range subsets {
		ckpt := filepath.Join(t.TempDir(), "shards.ckpt")

		// Phase 1: the "interrupted campaign" — only the shards in done
		// complete and reach the journal.
		if len(done) > 0 {
			jobs, err := SegmentJobs(cfg, plan.Segments(), "resume", src, ix)
			if err != nil {
				t.Fatalf("jobs: %v", err)
			}
			partial := make([]harness.Job[*Payload], 0, len(done))
			for _, i := range done {
				partial = append(partial, jobs[i])
			}
			if _, err := harness.RunAll(harness.Options{Parallelism: len(partial), Checkpoint: ckpt}, partial); err != nil {
				t.Fatalf("partial run %v: %v", done, err)
			}
		}

		// Phase 2: the full resumed run against the same journal.
		res, err := Run(cfg, plan, "resume", src, ix, harness.Options{Checkpoint: ckpt})
		if err != nil {
			t.Fatalf("resumed run %v: %v", done, err)
		}

		cached := make(map[int]bool, len(done))
		for _, i := range done {
			cached[i] = true
		}
		for i, sh := range res.Segments {
			if sh.Cached != cached[i] {
				t.Errorf("subset %v: shard %d cached=%v, want %v — resume must skip exactly the journaled shards",
					done, i, sh.Cached, cached[i])
			}
			if sh.Beacon == nil {
				t.Errorf("subset %v: shard %d has no beacon stamp", done, i)
				continue
			}
			want := ref.Segments[i].Beacon
			if want == nil {
				t.Fatalf("reference shard %d has no beacon stamp", i)
			}
			if *sh.Beacon != *want {
				t.Errorf("subset %v: shard %d beacon %#x/%d, reference %#x/%d — journaled stamps must verify against a fresh run",
					done, i, sh.Beacon.Chain, sh.Beacon.Count, want.Chain, want.Count)
			}
		}
		if !reflect.DeepEqual(res.Stats, ref.Stats) {
			t.Errorf("subset %v: resumed stitched stats differ from uninterrupted run", done)
		}
		if res.IPC != ref.IPC {
			t.Errorf("subset %v: resumed IPC %f, reference %f", done, res.IPC, ref.IPC)
		}
	}
}

// TestResumeStalePlanRejected: a journal written under one plan must not
// be stitched into a different plan — the per-shard keys embed the
// segment geometry, so a reshaped plan misses the journal entirely and
// re-simulates rather than mixing stale payloads in.
func TestResumeStalePlanRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates hundreds of thousands of instructions")
	}
	cfg, plan := resumeConfig()
	src := testSource(t, workload.NewCatalog(120, 20).ServerNames()[3])
	ix := NewIndex()
	ckpt := filepath.Join(t.TempDir(), "shards.ckpt")

	if _, err := Run(cfg, plan, "stale", src, ix, harness.Options{Checkpoint: ckpt}); err != nil {
		t.Fatalf("first run: %v", err)
	}

	reshaped := plan
	reshaped.Shards = 2
	res, err := Run(cfg, reshaped, "stale", src, ix, harness.Options{Checkpoint: ckpt})
	if err != nil {
		t.Fatalf("reshaped run: %v", err)
	}
	for i, sh := range res.Segments {
		if sh.Cached {
			t.Errorf("reshaped shard %d recalled a 4-shard journal entry", i)
		}
	}
}

// mapCountersPayload is a segment payload as journals stored it while a
// window's counters were a name→count map, which encoding/json writes in
// sorted key order: two windows of an iTP+xPTP srv_003 run in which all
// nine counters moved.
const mapCountersPayload = `{"segment":{"index":1,"offset":300000,"warmup":100000,"measure":1000000},"stats":null,"windows":[` +
	`{"window":671,"retired":672000,"instr":1000,"cycles":7384,"ipc":0.13542795232936078,"counters":{"branch.mispredict":7,"l1i.demand_miss":29,"l2c.demand_miss":100,"l2c.evict.data_pte":1,"l2c.evict.pte":1,"ptw.walk.data":15,"ptw.walk.instr":15,"stlb.demand_miss.data":15,"stlb.demand_miss.instr":15},"stlb_mpki_instr":15,"stlb_mpki_data":15,"xptp_enabled":true},` +
	`{"window":694,"retired":695000,"instr":1000,"cycles":6153,"ipc":0.16252234682268812,"counters":{"branch.mispredict":4,"l1i.demand_miss":14,"l2c.demand_miss":80,"l2c.evict.data_pte":1,"l2c.evict.pte":3,"ptw.walk.data":21,"ptw.walk.instr":8,"stlb.demand_miss.data":21,"stlb.demand_miss.instr":8},"stlb_mpki_instr":8,"stlb_mpki_data":21,"xptp_enabled":true}]}`

// TestMapCountersPayloadResumes: a journal written while window counters
// were a map still resumes — its payload decodes into the typed record
// with every counter intact and encodes back byte for byte.
func TestMapCountersPayloadResumes(t *testing.T) {
	var pl Payload
	if err := json.Unmarshal([]byte(mapCountersPayload), &pl); err != nil {
		t.Fatal(err)
	}
	want := []metrics.Counters{
		{BranchMispredict: 7, L1IDemandMiss: 29, L2CDemandMiss: 100, L2CEvictDataPTE: 1, L2CEvictPTE: 1,
			PTWWalkData: 15, PTWWalkInstr: 15, STLBDemandMissData: 15, STLBDemandMissInstr: 15},
		{BranchMispredict: 4, L1IDemandMiss: 14, L2CDemandMiss: 80, L2CEvictDataPTE: 1, L2CEvictPTE: 3,
			PTWWalkData: 21, PTWWalkInstr: 8, STLBDemandMissData: 21, STLBDemandMissInstr: 8},
	}
	if len(pl.Windows) != len(want) {
		t.Fatalf("decoded %d windows, want %d", len(pl.Windows), len(want))
	}
	for i, rec := range pl.Windows {
		if rec.Counters != want[i] {
			t.Errorf("window %d counters %+v, want %+v", rec.Window, rec.Counters, want[i])
		}
	}
	data, err := json.Marshal(&pl)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != mapCountersPayload {
		t.Errorf("re-encoded payload differs:\n got %s\nwant %s", data, mapCountersPayload)
	}
}
