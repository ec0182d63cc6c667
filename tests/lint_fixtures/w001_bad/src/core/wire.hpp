// W001 fixture: codec declarations for cluster_protocol.hpp's tags.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

struct Good {};
struct Lost {};
struct Quiet {};
template <typename T>
struct WireResult {};

std::vector<std::byte> encode_good(const Good& g);
WireResult<Good> try_decode_good(std::span<const std::byte> bytes);
std::vector<std::byte> encode_lost(const Lost& l);
std::vector<std::byte> encode_quiet(const Quiet& q);
WireResult<Quiet> try_decode_quiet(std::span<const std::byte> bytes);
