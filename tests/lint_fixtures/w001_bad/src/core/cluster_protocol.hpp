// W001 fixture: three codec-bearing tags. The two lines marked BAD must be
// flagged; kTagGood's decoder is declared as try_decode_good, which W001
// accepts for the encode_good/decode_good annotation.
#pragma once

inline constexpr int kTagGood = 1;   // pgasm-wire: encode_good/decode_good
inline constexpr int kTagLost = 2;   // pgasm-wire: encode_lost/decode_lost
                                     // BAD: no decoder declared
inline constexpr int kTagQuiet = 3;  // pgasm-wire: encode_quiet/decode_quiet
                                     // BAD: no round-trip test
