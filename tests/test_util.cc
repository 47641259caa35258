/**
 * @file
 * Unit tests for the util layer: RNG determinism and distribution
 * sanity, table formatting, string helpers, CLI parsing, socket
 * options.
 */

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <set>
#include <sstream>

#include "util/cli.hh"
#include "util/logging.hh"
#include "util/net.hh"
#include "util/rng.hh"
#include "util/strings.hh"
#include "util/table.hh"

namespace azoo {
namespace {

TEST(Rng, DeterministicFromSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange)
{
    Rng r(7);
    for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(r.nextBelow(bound), bound);
    }
}

TEST(Rng, NextBelowCoversAllValues)
{
    Rng r(11);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.nextBelow(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextRangeInclusive)
{
    Rng r(5);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 500; ++i) {
        int64_t v = r.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        hit_lo |= v == -3;
        hit_hi |= v == 3;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i) {
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliRoughlyCalibrated)
{
    Rng r(13);
    int heads = 0;
    for (int i = 0; i < 10000; ++i)
        heads += r.nextBool(0.3);
    EXPECT_NEAR(heads / 10000.0, 0.3, 0.03);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng r(17);
    std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
    auto orig = v;
    r.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Rng, ForkIndependentButDeterministic)
{
    Rng a(21), b(21);
    Rng fa = a.fork(), fb = b.fork();
    EXPECT_EQ(fa.next(), fb.next());
    EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, RandomStringUsesAlphabet)
{
    Rng r(23);
    std::string s = r.randomString(200, "xyz");
    EXPECT_EQ(s.size(), 200u);
    for (char c : s)
        EXPECT_TRUE(c == 'x' || c == 'y' || c == 'z');
}

TEST(Table, FormatsAlignedColumns)
{
    Table t({"A", "Name"});
    t.addRow({"1", "abc"});
    t.addRow({"22", "d"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("| A  | Name |"), std::string::npos);
    EXPECT_NE(out.find("| 22 | d    |"), std::string::npos);
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(Table::num(0), "0");
    EXPECT_EQ(Table::num(999), "999");
    EXPECT_EQ(Table::num(2374717), "2,374,717");
    EXPECT_EQ(Table::fixed(1.005, 2), "1.00");
    EXPECT_EQ(Table::ratio(4.71), "4.71x");
    EXPECT_EQ(Table::percent(26.7), "26.7%");
}

TEST(Strings, SplitKeepsEmptyFields)
{
    auto v = split("a,,b", ',');
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], "a");
    EXPECT_EQ(v[1], "");
    EXPECT_EQ(v[2], "b");
}

TEST(Strings, Trim)
{
    EXPECT_EQ(trim("  x y \t\n"), "x y");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(Strings, HexHelpers)
{
    EXPECT_EQ(hexValue('0'), 0);
    EXPECT_EQ(hexValue('f'), 15);
    EXPECT_EQ(hexValue('A'), 10);
    EXPECT_EQ(hexValue('g'), -1);
    EXPECT_EQ(hexByte(0xAB), "ab");
    EXPECT_EQ(hexByte(0x05), "05");
}

TEST(Strings, EscapeBytes)
{
    EXPECT_EQ(escapeBytes("ab"), "ab");
    EXPECT_EQ(escapeBytes(std::string("\x01", 1)), "\\x01");
}

TEST(Cli, ParsesFlagsAndValues)
{
    const char *argv[] = {"prog", "--scale", "0.5", "--full",
                          "--name=zed"};
    Cli cli(5, const_cast<char **>(argv), {"scale", "full", "name"});
    EXPECT_DOUBLE_EQ(cli.getDouble("scale", 1.0), 0.5);
    EXPECT_TRUE(cli.getBool("full"));
    EXPECT_EQ(cli.get("name"), "zed");
    EXPECT_EQ(cli.getInt("missing", 42), 42);
    EXPECT_FALSE(cli.has("missing"));
}

/** Connect to a listener, then accept the pending connection. */
void
connectAndAccept(const std::string &addr, int listenFd, net::Fd &client,
                 net::Fd &accepted)
{
    Expected<net::Fd> c = net::connectTo(addr);
    ASSERT_TRUE(c.ok()) << c.status().message();
    client = std::move(*c);
    // connect() returned, so the connection is queued on the
    // listener; a non-blocking accept finds it at once.
    bool wouldBlock = false;
    Expected<net::Fd> a = net::acceptOn(listenFd, wouldBlock);
    ASSERT_TRUE(a.ok()) << a.status().message();
    ASSERT_FALSE(wouldBlock);
    accepted = std::move(*a);
    ASSERT_TRUE(accepted.valid());
}

int
noDelay(int fd)
{
    int v = -1;
    socklen_t len = sizeof(v);
    EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &v, &len), 0);
    return v;
}

TEST(Net, TcpBothEndsSetNoDelay)
{
    Expected<net::Fd> lfd = net::listenOn("tcp:0");
    ASSERT_TRUE(lfd.ok()) << lfd.status().message();
    const uint16_t port = net::localPort(lfd->get());
    ASSERT_NE(port, 0);

    net::Fd client, accepted;
    connectAndAccept(cat("tcp:", port), lfd->get(), client, accepted);
    EXPECT_EQ(noDelay(client.get()), 1);
    EXPECT_EQ(noDelay(accepted.get()), 1);
}

TEST(Net, UnixRoundTripStillWorks)
{
    const std::string path =
        cat("/tmp/azoo-test-util-", ::getpid(), ".sock");
    Expected<net::Fd> lfd = net::listenOn("unix:" + path);
    ASSERT_TRUE(lfd.ok()) << lfd.status().message();

    net::Fd client, accepted;
    connectAndAccept("unix:" + path, lfd->get(), client, accepted);
    const char msg[] = "ping";
    ASSERT_TRUE(net::writeAll(client.get(), msg, sizeof(msg)).ok());
    char got[sizeof(msg)] = {};
    ASSERT_TRUE(net::readAll(accepted.get(), got, sizeof(got), 5000).ok());
    EXPECT_STREQ(got, msg);
    ::unlink(path.c_str());
}

} // namespace
} // namespace azoo
