#include "core/charset.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <unordered_map>

#include "util/logging.hh"
#include "util/strings.hh"

namespace azoo {

CharSet
CharSet::single(uint8_t c)
{
    CharSet cs;
    cs.set(c);
    return cs;
}

CharSet
CharSet::range(uint8_t lo, uint8_t hi)
{
    CharSet cs;
    cs.setRange(lo, hi);
    return cs;
}

CharSet
CharSet::all()
{
    CharSet cs;
    cs.words_ = {~uint64_t(0), ~uint64_t(0), ~uint64_t(0), ~uint64_t(0)};
    return cs;
}

void
CharSet::setRange(uint8_t lo, uint8_t hi)
{
    assert(lo <= hi);
    for (int c = lo; c <= hi; ++c)
        set(static_cast<uint8_t>(c));
}

bool
CharSet::tryFromExpr(const std::string &expr, CharSet &out,
                     std::string &error)
{
    CharSet cs;
    size_t i = 0;
    bool negate = false;
    if (i < expr.size() && expr[i] == '^') {
        negate = true;
        ++i;
    }

    bool bad = false;
    auto read_char = [&](size_t &pos) -> int {
        if (expr[pos] == '\\' && pos + 1 < expr.size()) {
            char e = expr[pos + 1];
            if (e == 'x' && pos + 3 < expr.size()) {
                int hi = hexValue(expr[pos + 2]);
                int lo = hexValue(expr[pos + 3]);
                if (hi < 0 || lo < 0) {
                    error = cat("bad \\x escape in charset: ", expr);
                    bad = true;
                    pos += 4;
                    return 0;
                }
                pos += 4;
                return hi * 16 + lo;
            }
            pos += 2;
            switch (e) {
              case 'n': return '\n';
              case 't': return '\t';
              case 'r': return '\r';
              case '0': return 0;
              default: return static_cast<unsigned char>(e);
            }
        }
        return static_cast<unsigned char>(expr[pos++]);
    };

    while (i < expr.size() && !bad) {
        int c = read_char(i);
        if (i + 1 < expr.size() && expr[i] == '-') {
            size_t j = i + 1;
            int hi = read_char(j);
            i = j;
            if (hi < c) {
                error = cat("reversed range in charset: ", expr);
                bad = true;
                break;
            }
            cs.setRange(static_cast<uint8_t>(c), static_cast<uint8_t>(hi));
        } else {
            cs.set(static_cast<uint8_t>(c));
        }
    }
    if (bad)
        return false;
    out = negate ? ~cs : cs;
    return true;
}

CharSet
CharSet::fromExpr(const std::string &expr)
{
    CharSet cs;
    std::string error;
    if (!tryFromExpr(expr, cs, error))
        fatal(error);
    return cs;
}

int
CharSet::count() const
{
    int n = 0;
    for (auto w : words_)
        n += std::popcount(w);
    return n;
}

bool
CharSet::empty() const
{
    return !(words_[0] | words_[1] | words_[2] | words_[3]);
}

int
CharSet::lowest() const
{
    for (int i = 0; i < 4; ++i) {
        if (words_[i])
            return i * 64 + std::countr_zero(words_[i]);
    }
    return -1;
}

CharSet
CharSet::operator|(const CharSet &o) const
{
    CharSet out = *this;
    out |= o;
    return out;
}

CharSet
CharSet::operator&(const CharSet &o) const
{
    CharSet out = *this;
    out &= o;
    return out;
}

CharSet
CharSet::operator~() const
{
    CharSet out;
    for (int i = 0; i < 4; ++i)
        out.words_[i] = ~words_[i];
    return out;
}

CharSet &
CharSet::operator|=(const CharSet &o)
{
    for (int i = 0; i < 4; ++i)
        words_[i] |= o.words_[i];
    return *this;
}

CharSet &
CharSet::operator&=(const CharSet &o)
{
    for (int i = 0; i < 4; ++i)
        words_[i] &= o.words_[i];
    return *this;
}

uint64_t
CharSet::hash() const
{
    // FNV-style mix over the four words.
    uint64_t h = 0xcbf29ce484222325ULL;
    for (auto w : words_) {
        h ^= w;
        h *= 0x100000001b3ULL;
        h ^= h >> 29;
    }
    return h;
}

std::string
CharSet::str() const
{
    if (count() == 256)
        return "*";
    std::string out = "[";
    int c = 0;
    while (c < 256) {
        if (!test(static_cast<uint8_t>(c))) {
            ++c;
            continue;
        }
        int run = c;
        while (run + 1 < 256 && test(static_cast<uint8_t>(run + 1)))
            ++run;
        auto show = [](int v) -> std::string {
            // Escape whitespace too: azml tokenizes on spaces.
            if (v > 0x20 && v < 0x7f &&
                v != '[' && v != ']' && v != '\\' && v != '-' &&
                v != '^') {
                return std::string(1, static_cast<char>(v));
            }
            return "\\x" + hexByte(static_cast<uint8_t>(v));
        };
        out += show(c);
        if (run > c) {
            if (run > c + 1)
                out += "-";
            out += show(run);
        }
        c = run + 1;
    }
    out += "]";
    return out;
}

SymbolClasses
symbolClasses(const std::vector<const CharSet *> &sets)
{
    SymbolClasses out; // one class holding every byte
    uint32_t count = 1;
    std::unordered_map<uint64_t, std::vector<const CharSet *>> seen;
    for (const CharSet *s : sets) {
        std::vector<const CharSet *> &bucket = seen[s->hash()];
        if (std::any_of(bucket.begin(), bucket.end(),
                        [&](const CharSet *c) { return *c == *s; }))
            continue;
        bucket.push_back(s);
        // Split every class by membership in s. Numbering the pieces
        // in byte order keeps classes in first-byte order.
        std::array<int16_t, 512> piece;
        piece.fill(-1);
        int16_t next = 0;
        for (int b = 0; b < 256; ++b) {
            const auto c = static_cast<uint8_t>(b);
            int16_t &id = piece[out.classOf[c] * 2 + s->test(c)];
            if (id < 0)
                id = next++;
            out.classOf[c] = static_cast<uint8_t>(id);
        }
        count = static_cast<uint32_t>(next);
    }
    out.rep.assign(count, 0);
    for (int b = 255; b >= 0; --b)
        out.rep[out.classOf[b]] = static_cast<uint8_t>(b);
    return out;
}

} // namespace azoo
