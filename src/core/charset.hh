/**
 * @file
 * 256-way character set, the match label carried by every STE in a
 * homogeneous automaton (ANML/MNRL convention).
 */

#ifndef AZOO_CORE_CHARSET_HH
#define AZOO_CORE_CHARSET_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace azoo {

/**
 * A set of 8-bit symbols represented as a 256-bit bitmap.
 *
 * This is the hot data structure of the NFA interpreter, so membership
 * tests are branch-free word ops. Bit-level automata reuse CharSet
 * with only symbols 0 and 1 populated.
 */
class CharSet
{
  public:
    /** Empty set. */
    CharSet() : words_{} {}

    /** Singleton set. */
    static CharSet single(uint8_t c);

    /** Inclusive range [lo, hi]. */
    static CharSet range(uint8_t lo, uint8_t hi);

    /** Full set (matches any symbol), the '*' STE. */
    static CharSet all();

    /** Rebuild a set from its raw word storage (the artifact loader's
     *  inverse of word()). */
    static CharSet
    fromWords(const std::array<uint64_t, 4> &words)
    {
        CharSet s;
        s.words_ = words;
        return s;
    }

    /** Parse a character-class style expression, e.g. "a-zA-Z0-9_".
     *  A leading '^' negates. '\xNN' escapes are supported.
     *  fatal() on malformed expressions; trusted call sites only. */
    static CharSet fromExpr(const std::string &expr);

    /** Non-fatal fromExpr for untrusted input (the format loaders):
     *  returns false and fills @p error on a malformed expression. */
    static bool tryFromExpr(const std::string &expr, CharSet &out,
                            std::string &error);

    bool
    test(uint8_t c) const
    {
        return (words_[c >> 6] >> (c & 63)) & 1;
    }

    void
    set(uint8_t c)
    {
        words_[c >> 6] |= uint64_t(1) << (c & 63);
    }

    void
    clear(uint8_t c)
    {
        words_[c >> 6] &= ~(uint64_t(1) << (c & 63));
    }

    void setRange(uint8_t lo, uint8_t hi);

    /** Number of symbols in the set. */
    int count() const;

    bool empty() const;

    /** Lowest member, or -1 if empty. */
    int lowest() const;

    CharSet operator|(const CharSet &o) const;
    CharSet operator&(const CharSet &o) const;
    CharSet operator~() const;
    CharSet &operator|=(const CharSet &o);
    CharSet &operator&=(const CharSet &o);
    bool operator==(const CharSet &o) const { return words_ == o.words_; }
    bool operator!=(const CharSet &o) const { return words_ != o.words_; }

    /** Stable 64-bit hash (used by state-merging passes). */
    uint64_t hash() const;

    /** Raw word access for the simulation kernels. */
    uint64_t word(int i) const { return words_[i]; }

    /** Compact display form, e.g. "[a-c\x00]" or "*". */
    std::string str() const;

  private:
    std::array<uint64_t, 4> words_;
};

/** Byte equivalence classes of a family of sets: two bytes share a
 *  class iff every set holds both or neither, so a DFA over the sets
 *  needs one transition column per class. */
struct SymbolClasses {
    /** Byte -> class; classes are numbered in order of their first
     *  byte. */
    std::array<uint8_t, 256> classOf{};
    /** The first (smallest) byte of each class; never empty. */
    std::vector<uint8_t> rep;
};

/** The classes of @p sets (duplicates allowed; no sets = one class). */
SymbolClasses symbolClasses(const std::vector<const CharSet *> &sets);

} // namespace azoo

#endif // AZOO_CORE_CHARSET_HH
