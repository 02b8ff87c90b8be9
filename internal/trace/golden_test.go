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
// sampler, the version-3 head codes and the version-4 stream byte
// lengths must not move a single op of any generator's output, for any
// seed, nor of a recorded run's trace. Each
// trace is encoded (version 4, whose bytes are pinned beside), decoded,
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
			t.Errorf("%s: version 4 is %d bytes, sha256 %s; want %d bytes, %s", name, len(data), sum(data), size, hash)
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
		{"zipf", 1, 63483, 47483, "65067749c97769e0e644a4a84533bc0cabc504565785fb30afb62f59690d784c", "0a7ec7c79ebfe05b1bc898cd6c19b5bd1325fe3d93ef9b7716071ea079ac8e28"},
		{"zipf", 7, 62930, 46932, "5b31c12f2f6c16d5e4e9030cf1df77895018638a65e0b5ae8bdca8212ef412c2", "3d3435d0240f3d67e28bbd378f6b8085f26de9263c2d72b82f973789211359c1"},
		{"zipf", 12345, 64426, 48426, "703ee5017d45711ddaed361a12fba0c8e302baeb69d45f33dc6db81ea31a58ee", "8e12810513a4966ca888bd3a1e02f480d99e1dc8fd420e5b6301dccef080f1c2"},
		{"migratory", 1, 74038, 58038, "dd1268ac3c6ae61c9f30b6b4413a9be57ff9eae6c565aa79343c47bf7e1ce187", "94aaa4d437c6f312e35ceff6221a592317fd8d680710de27d404925bfe487a1f"},
		{"migratory", 7, 74110, 58110, "60fcfd01366467dbd75a139123bc147cc4abb49c18579e0b60c4e54d6b77cb8b", "c29ac5a48561b1b361f21932be2b8d16ab922f32be57f81acf856185f5cdf152"},
		{"migratory", 12345, 74039, 58039, "97c014ed045934b1c165b8f59b8e21edbcbf471faabf65355be5a8bb9d8cad88", "d6b3e2fd530732be040d36e76a4de8e2c9b23e768681ce3fd5984473eaa80be6"},
		{"scan", 1, 42205, 26205, "ef5652b37ff040719248c641b17fd6caf319ed47fc10cddf9b1eccc17979a6b1", "be6251d19d0919eed0f1652b3f0b453257c30f6c7bca1b6e4412eb968c9f7bbd"},
		{"scan", 7, 42205, 26205, "796c7b0d66a9e154750a1428ba4d1dc04830a0d431952c259689d52f26337116", "1382779ee4540f0264bdae78297daeb0dec08337f3912766be117dec49df5e14"},
		{"scan", 12345, 42206, 26206, "4eed9ebe6f315cb847b7f451165ebe67ac75adcc181efe6c8ccf52b83f5e4223", "48e599402723d008efaaeaa797026b32f8fea8fbd9a346579ba44571b8b383a5"},
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
		6242, "f3bc3235f654d9a53e28a179f959431aa2680db14020c8d712c1ec8a94a5e7ae")
}
