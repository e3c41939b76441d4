#include "common/random.hh"

#include "common/logging.hh"

namespace xbs
{

namespace
{

uint64_t
splitmix64(uint64_t &x)
{
    uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // anonymous namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
}

uint64_t
Rng::below(uint64_t bound)
{
    xbs_assert(bound > 0, "zero bound");
    // Lemire-style rejection to avoid modulo bias.
    uint64_t threshold = (-bound) % bound;
    for (;;) {
        uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

int64_t
Rng::range(int64_t lo, int64_t hi)
{
    xbs_assert(lo <= hi, "bad range [%ld, %ld]", (long)lo, (long)hi);
    return lo + (int64_t)below((uint64_t)(hi - lo) + 1);
}

std::size_t
Rng::weighted(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights)
        total += w;
    xbs_assert(total > 0.0, "weighted() needs positive total weight");
    double draw = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        draw -= weights[i];
        if (draw < 0.0)
            return i;
    }
    return weights.size() - 1;
}

uint32_t
Rng::boundedGeometric(double mean, uint32_t cap)
{
    return BoundedGeometric(mean, cap)(*this);
}

BoundedGeometric::BoundedGeometric(double mean, uint32_t cap)
    : cap_(cap)
{
    xbs_assert(mean >= 1.0 && cap >= 1, "mean=%f cap=%u", mean, cap);
    // Geometric on {1, 2, ...} with the requested mean, then capped:
    // the inverse CDF, floor(log1p(-u) / log1p(-p)) + 1 for p = 1/mean.
    denom_ = std::log1p(-1.0 / mean);
}

std::size_t
Rng::zipf(std::size_t n, double s)
{
    ZipfTable table(n, s);
    return table.sample(*this);
}

ZipfTable::ZipfTable(std::size_t n, double s)
{
    xbs_assert(n > 0, "empty Zipf domain");
    cdf_.resize(n);
    double acc = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
        acc += 1.0 / std::pow((double)(r + 1), s);
        cdf_[r] = acc;
    }
    for (auto &v : cdf_)
        v /= acc;
}

std::size_t
ZipfTable::sample(Rng &rng) const
{
    double u = rng.uniform();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end())
        return cdf_.size() - 1;
    return (std::size_t)(it - cdf_.begin());
}

} // namespace xbs
