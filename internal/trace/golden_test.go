package trace_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/tsocc"
	"repro/internal/workloads"
)

// TestGoldenEncodings pins trace content to what the codec wrote while
// streams were still []Op slices (version-2 hashes captured at commit
// 96cb040, the last with the materializing codec): packing the
// in-memory form, the builder's run folding, the guide-table Zipf
// sampler and the version-3 head codes must not move a single op of any
// generator's output, for any seed, nor of a recorded run's trace. Each
// trace is encoded (version 3, whose bytes are pinned beside), decoded,
// and its decoded ops written by the test-only version-2 writer
// (EncodeV2) for the old hash.
func TestGoldenEncodings(t *testing.T) {
	sum := func(data []byte) string {
		h := sha256.Sum256(data)
		return hex.EncodeToString(h[:])
	}
	check := func(name string, tr *trace.Trace, v2size int, v2hash string, size int, hash string) {
		t.Helper()
		data, err := trace.Encode(tr)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != size || sum(data) != hash {
			t.Errorf("%s: version 3 is %d bytes, sha256 %s; want %d bytes, %s", name, len(data), sum(data), size, hash)
		}
		dec, err := trace.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if old := trace.EncodeV2(dec); len(old) != v2size || sum(old) != v2hash {
			t.Errorf("%s: decoded ops in version 2 are %d bytes, sha256 %s; want %d bytes, %s",
				name, len(old), sum(old), v2size, v2hash)
		}
	}
	golden := []struct {
		gen          string
		seed         uint64
		v2size, size int
		v2hash, hash string
	}{
		{"zipf", 1, 63483, 47475, "65067749c97769e0e644a4a84533bc0cabc504565785fb30afb62f59690d784c", "f76bed1edf297095d5fab2e19def6eb159eba77b5ffa6ef36eeb9f9e87bccfc0"},
		{"zipf", 7, 62930, 46924, "5b31c12f2f6c16d5e4e9030cf1df77895018638a65e0b5ae8bdca8212ef412c2", "895547a527e7ebbc6fbe8bfab7bd4a76ad4fac32227f561ef0ae5b4fb9ea6da6"},
		{"zipf", 12345, 64426, 48418, "703ee5017d45711ddaed361a12fba0c8e302baeb69d45f33dc6db81ea31a58ee", "0655f39ac2a73f66ec2d8aa9ed4b9837d8766f3bdf735e7810c4b0ce67b7775d"},
		{"migratory", 1, 74038, 58030, "dd1268ac3c6ae61c9f30b6b4413a9be57ff9eae6c565aa79343c47bf7e1ce187", "e44122ec4d403c1c243e8caa37c23e405bc30b36f17fd24f532636190dc05d52"},
		{"migratory", 7, 74110, 58102, "60fcfd01366467dbd75a139123bc147cc4abb49c18579e0b60c4e54d6b77cb8b", "aea234c73e06cf58f67046e3ce7ca25d46ecd8144de758eef0ae647b631b9b2a"},
		{"migratory", 12345, 74039, 58031, "97c014ed045934b1c165b8f59b8e21edbcbf471faabf65355be5a8bb9d8cad88", "7eef663c4a1897737596ddf976ea07e16be9ff180f784873efc7a81b76cbeffe"},
		{"scan", 1, 42205, 26197, "ef5652b37ff040719248c641b17fd6caf319ed47fc10cddf9b1eccc17979a6b1", "efbfa238d8706e5c3205e1900e39d7c9e3780b9c67c4f26347c83efa1de84eff"},
		{"scan", 7, 42205, 26197, "796c7b0d66a9e154750a1428ba4d1dc04830a0d431952c259689d52f26337116", "195704bb8087a2dccf39242fe22b718429e69ff52d0bc37d319c4cda56f6e15d"},
		{"scan", 12345, 42206, 26198, "4eed9ebe6f315cb847b7f451165ebe67ac75adcc181efe6c8ccf52b83f5e4223", "b873f68631a838f8ed1fd3766c7f018975dbf685ca9141cafaf96a84cf502a98"},
	}
	gens := map[string]func(trace.SynthParams) *trace.Trace{}
	for _, g := range synthGens {
		gens[g.name] = g.gen
	}
	for _, g := range golden {
		tr := gens[g.gen](trace.SynthParams{Cores: 4, OpsPerCore: 2000, Seed: g.seed})
		check(fmt.Sprintf("%s seed %d", g.gen, g.seed), tr, g.v2size, g.v2hash, g.size, g.hash)
	}

	// A recorded run: 4-thread x264 under TSO-CC-4-12-3, 1289 ops with
	// the spin-probe runs the RLE exists for.
	p := workloads.Params{Threads: 4, Scale: 1, Seed: 1}
	_, tr, err := system.RunRecorded(config.Small(4), tsocc.New(config.C12x3()),
		workloads.ByName("x264").Gen(p), p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Ops() != 1289 {
		t.Errorf("recorded x264: %d ops, want 1289", tr.Ops())
	}
	check("recorded x264", tr,
		7864, "87e72b7d63625a72e5fac41c0e3699f8a7da57ce6b142b806bf428ae126f0492",
		6234, "f6bd8e82dd9af2131a62382c4d131020418cd305952405c695b89a73c9899b0e")
}
