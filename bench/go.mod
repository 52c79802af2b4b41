// The benchmark is a module of its own so that it builds, vets and
// tests apart from the library. Its path sits under "proger/", which
// is what lets it import proger/internal/...; the replace points at the
// repository root, so it always measures the checkout it lives in.
module proger/bench

go 1.22

require proger v0.0.0

replace proger => ../
