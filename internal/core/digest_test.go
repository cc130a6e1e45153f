package core

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/devices"
)

// perfbenchBankDigest is the sha256 of the snapshot of the benchmark
// bank: the 27×20 corpus of devices.GenerateDataset(DefaultEnv(), 1, 20)
// trained with Default(), Seed 1 and Forest.Seed 1. It was measured on
// amd64.
const perfbenchBankDigest = "4d068d1216405a5e090f442681dbfb727c8f861c7378d4da0e8083aabae6d56f"

// TestTrainPinnedBankDigest pins training to its bytes: any change to
// the tree builder, bootstrap, feature subsampling, negative sampling
// or snapshot encoding that alters a single trained node changes the
// digest. The value is pinned to amd64 only, because the compiler may
// fuse multiply-adds on other architectures (arm64, ppc64, s390x) and
// so round the Gini arithmetic differently; the ml package's
// tree-oracle test carries split identity on every architecture.
func TestTrainPinnedBankDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest measured on amd64; GOARCH=%s may fuse multiply-adds", runtime.GOARCH)
	}
	corpus, err := devices.GenerateDataset(devices.DefaultEnv(), 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	cfg.Seed = 1
	cfg.Forest.Seed = 1
	bank, err := Train(cfg, corpus)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := bank.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(snap)
	if got := hex.EncodeToString(sum[:]); got != perfbenchBankDigest {
		t.Fatalf("bank snapshot sha256 = %s, want %s", got, perfbenchBankDigest)
	}
}
