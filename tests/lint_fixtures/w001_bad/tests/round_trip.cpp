// W001 fixture: round-trip references. kTagQuiet's decoder is never
// exercised here.
#include "core/wire.hpp"

void round_trips() {
  (void)try_decode_good(encode_good(Good{}));
  (void)try_decode_lost(encode_lost(Lost{}));
  (void)encode_quiet(Quiet{});
}
