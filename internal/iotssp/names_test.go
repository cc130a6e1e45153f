package iotssp

import (
	"reflect"
	"strings"
	"testing"
)

// TestNameInternRoundTrip: every wire form an encoder can emit decodes
// back to the original name, with the two ends' tables in lockstep.
func TestNameInternRoundTrip(t *testing.T) {
	enc := &nameEnc{}
	dec := &nameDec{}
	names := []string{"Aria", "HueBridge", "Aria", "#strange", "=stranger", "~tilde", "HueBridge", "Aria"}
	for i, name := range names {
		wire := enc.define(name)
		got, err := dec.resolve(wire)
		if err != nil {
			t.Fatalf("step %d: resolve(%q): %v", i, wire, err)
		}
		if got != name {
			t.Fatalf("step %d: %q -> %q -> %q", i, name, wire, got)
		}
	}
	// Second sight of a defined name is a reference, not a re-definition.
	if wire := enc.define("Aria"); wire != "#0" {
		t.Errorf("repeat define = %q, want #0", wire)
	}
	// ref never defines: an unseen name travels as an escaped literal.
	if wire := enc.ref("NeverDefined"); wire != "NeverDefined" {
		t.Errorf("ref of unseen plain name = %q", wire)
	}
	if wire := enc.ref("#odd"); wire != "~#odd" {
		t.Errorf("ref of unseen escaped name = %q", wire)
	}
}

// TestNameDecRejectsUnknownRef: a reference past the decode table is a
// coherence failure, not a silent empty name.
func TestNameDecRejectsUnknownRef(t *testing.T) {
	dec := &nameDec{names: []string{"Aria"}}
	for _, bad := range []string{"#1", "#-1", "#x", "#"} {
		if _, err := dec.resolve(bad); err == nil {
			t.Errorf("resolve(%q) accepted", bad)
		}
	}
	if got, err := dec.resolve("#0"); err != nil || got != "Aria" {
		t.Errorf("resolve(#0) = %q, %v", got, err)
	}
	if got, err := dec.resolve(""); err != nil || got != "" {
		t.Errorf("resolve(empty) = %q, %v", got, err)
	}
}

// TestInternCandidatesPendingCommit: candidate interning returns the
// wire forms plus the definitions to commit only once the line ships —
// and repeated names within one request reference the pending index.
func TestInternCandidatesPendingCommit(t *testing.T) {
	idx := map[string]int{"Aria": 0}
	wire, defined := internCandidates([]string{"Aria", "HueBridge", "HueBridge", "WeMo"}, idx)
	if want := []string{"#0", "=HueBridge", "#1", "=WeMo"}; !reflect.DeepEqual(wire, want) {
		t.Fatalf("wire = %v, want %v", wire, want)
	}
	if want := []string{"HueBridge", "WeMo"}; !reflect.DeepEqual(defined, want) {
		t.Fatalf("defined = %v, want %v", defined, want)
	}
	// Nothing committed yet: the caller owns the commit.
	if len(idx) != 1 {
		t.Fatalf("intern mutated the table before commit: %v", idx)
	}
	// The decoder reads the same line back into lockstep.
	dec := &nameDec{names: []string{"Aria"}}
	if err := expandCandidates(wire, dec); err != nil {
		t.Fatal(err)
	}
	if want := []string{"Aria", "HueBridge", "HueBridge", "WeMo"}; !reflect.DeepEqual(wire, want) {
		t.Fatalf("expanded = %v, want %v", wire, want)
	}
}

// TestInternShardResponseRoundTrip: accepts define in wire order, best
// reuses the table, score keys are reference-or-literal (map order is
// not definition order), and expansion restores the original response.
func TestInternShardResponseRoundTrip(t *testing.T) {
	enc := &nameEnc{}
	dec := &nameDec{}
	orig := shardResponse{
		Accepts: [][]string{{"Aria", "HueBridge"}, {}, {"Aria"}},
		Best:    "HueBridge",
		Scores:  map[string]float64{"Aria": 0.25, "HueBridge": 0.5, "Outsider": 0.125},
	}
	resp := shardResponse{
		Accepts: [][]string{append([]string(nil), orig.Accepts[0]...), {}, append([]string(nil), orig.Accepts[2]...)},
		Best:    orig.Best,
		Scores:  map[string]float64{"Aria": 0.25, "HueBridge": 0.5, "Outsider": 0.125},
	}
	internShardResponse(&resp, enc)
	if resp.Accepts[0][0] != "=Aria" || resp.Accepts[2][0] != "#0" || resp.Best != "#1" {
		t.Fatalf("interned response = %+v", resp)
	}
	if _, ok := resp.Scores["Outsider"]; !ok {
		t.Fatalf("undefined score key should stay literal: %v", resp.Scores)
	}
	if err := expandShardResponse(&resp, dec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp, orig) {
		t.Fatalf("round trip = %+v, want %+v", resp, orig)
	}
}

// FuzzNameResolve drives the name-interning decoders with arbitrary
// wire forms and checks the codec round trip. The input is read as
// lines of comma-separated strings. Decoded raw, each string is a wire
// form ("#k", "=name", "~name" or a literal) fed through
// nameDec.resolve and expandShardResponse, which may reject but must
// never panic. Read as names, every line is interned through both
// directions' encoders (response and candidate list) and must decode
// back to the original names, with the tables in lockstep across
// lines.
func FuzzNameResolve(f *testing.F) {
	f.Add("Aria,HueBridge,Aria\nHueBridge,WeMo")
	f.Add("#0,=x,#0,~#y,#1\n=,#-1,#999999999999999999999,~")
	f.Add("#strange,=stranger,~tilde\n,,")
	f.Fuzz(func(t *testing.T, data string) {
		lines := strings.Split(data, "\n")

		// Raw wire forms: errors are fine, panics are not.
		raw := &nameDec{}
		for _, line := range lines {
			forms := strings.Split(line, ",")
			for _, s := range forms {
				raw.resolve(s)
			}
			resp := shardResponse{Accepts: [][]string{append([]string(nil), forms...)}, Best: forms[0], Scores: map[string]float64{}}
			for i, s := range forms {
				resp.Scores[s] = float64(i)
			}
			expandShardResponse(&resp, raw)
		}

		// Names: the encoder/decoder pairs must round-trip exactly.
		respEnc, respDec := &nameEnc{}, &nameDec{}
		reqIdx, reqDec := map[string]int{}, &nameDec{}
		for n, line := range lines {
			names := strings.Split(line, ",")
			scores := make(map[string]float64, len(names))
			for i, name := range names {
				scores[name] = float64(i)
			}
			resp := shardResponse{Accepts: [][]string{append([]string(nil), names...)}, Best: names[0], Scores: scores}
			internShardResponse(&resp, respEnc)
			if err := expandShardResponse(&resp, respDec); err != nil {
				t.Fatalf("line %d: expanding an interned response: %v", n, err)
			}
			if !reflect.DeepEqual(resp.Accepts[0], names) || resp.Best != names[0] || !reflect.DeepEqual(resp.Scores, scores) {
				t.Fatalf("line %d: response round trip %+v, want accepts %q best %q scores %v", n, resp, names, names[0], scores)
			}

			wire, defined := internCandidates(names, reqIdx)
			if err := expandCandidates(wire, reqDec); err != nil {
				t.Fatalf("line %d: expanding interned candidates: %v", n, err)
			}
			if !reflect.DeepEqual(wire, names) {
				t.Fatalf("line %d: candidate round trip %q, want %q", n, wire, names)
			}
			for _, name := range defined {
				reqIdx[name] = len(reqIdx)
			}
		}
	})
}
