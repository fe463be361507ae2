package main

import "fmt"

// recordedDigests holds, per workload, the output digest of every seed the
// benchmark records (0 and 1 are the same workload: the program treats
// GenSeed 0 as 1), at the default hash seed. A run on one of these seeds
// must reproduce its digest; other seeds are checked for agreement between
// the run's own repeated calls. Regenerate with
// `PERFBENCH_DIGESTS=1 go test -run TestPrintDigests -v` after a deliberate
// output change.
var recordedDigests = map[string]map[int64]string{
	"replay-ntt-64": {
		0: "837d870dda66ae09", 1: "837d870dda66ae09", 2: "bd93f06085db71af", 3: "22a960fc40c572ad",
		4: "6944717850db8cde", 5: "f1aed76866264ba1", 6: "11a2c0e25ac5e032", 7: "5755aaa9f611ad44",
		8: "df5a435fcc42be6c", 9: "519692fc276ee5f1", 10: "c173f9563f3fe324", 11: "c2090d05be9de336",
		12: "e2439c8f4e1a0977", 13: "19edbdf49e5bf78e", 14: "73506f3cd78802bd", 15: "e8ba44eb56ef7aba",
		16: "5457e2a42df75f36", 1000: "4dce5bf2dc62e6ef",
	},
	"replay-geant-1500-live": {
		0: "ed9f2655f076eaa5", 1: "ed9f2655f076eaa5", 2: "33734e7af16e5887", 3: "8568c6b0848f1d2e",
		4: "eb5e8c0596440ae9", 5: "c28642b696156c91", 6: "7cb395eb4a1b29df", 7: "b17e81e77deebcf8",
		8: "59f94549d6aef5bb", 9: "c21d1a6f453f6f15", 10: "142c3f22a5a928dd", 11: "90ac790c0b08387b",
		12: "8622835bc8583a50", 13: "13c23c51c3df0067", 14: "d4d54c1db88bf136", 15: "cfb458dc4e6efe4c",
		16: "845a08d12bef27a7", 1000: "89c38256a9681a55",
	},
	"drift-geant-diurnal": {
		0: "025738c9a7f0aa09", 1: "025738c9a7f0aa09", 2: "c4c07e06f1a6436a", 3: "1c60e8e4b447d98e",
		4: "97cec4dda98e2627", 5: "4464d4ad687e43ca", 6: "50ef2fff724ad326", 7: "c88ec6c8de0bad3f",
		8: "a5db17bb44cf0349", 9: "dfe842650484c0eb", 10: "7270dee25469ef87", 11: "b673c598b03ea6ad",
		12: "a76f4cccb48127d2", 13: "de8969b2a7afd31d", 14: "8fe2d9312dd52e1a", 15: "744cb65a2ba33420",
		16: "f2dec792518865bb", 1000: "1099cb69c8121f04",
	},
}

// recordedDigest returns the digest a run must reproduce ("" when none is
// recorded) and a note on how the run's digest is checked.
func recordedDigest(name string, seed int64, hashSeed uint32) (string, string) {
	if hashSeed == defaultHashSeed {
		if d, ok := recordedDigests[name][seed]; ok {
			return d, "recorded"
		}
	}
	return "", fmt.Sprintf("repeat-only: no digest recorded for seed %d, hash seed %d", seed, hashSeed)
}
