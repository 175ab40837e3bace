// SHA-256 against FIPS 180-4 vectors.
#include <gtest/gtest.h>

#include <string>

#include "ropuf/hash/sha256.hpp"

namespace {

using ropuf::hash::Sha256;
using ropuf::hash::to_hex;

TEST(Sha256, EmptyString) {
    EXPECT_EQ(to_hex(Sha256::hash("")),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
    EXPECT_EQ(to_hex(Sha256::hash("abc")),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
    EXPECT_EQ(to_hex(Sha256::hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
    Sha256 h;
    const std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) h.update(chunk);
    EXPECT_EQ(to_hex(h.finalize()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
    // 64-byte message exercises the "no room for length" padding path.
    const std::string m(64, 'x');
    EXPECT_EQ(to_hex(Sha256::hash(m)), to_hex(Sha256::hash(m))); // deterministic
    // Cross-check against incremental update in odd chunk sizes.
    Sha256 h;
    h.update(m.substr(0, 13));
    h.update(m.substr(13, 50));
    h.update(m.substr(63));
    EXPECT_EQ(to_hex(h.finalize()), to_hex(Sha256::hash(m)));
}

TEST(Sha256, FiftyFiveAndFiftySixBytes) {
    // 55 bytes: padding fits in one block; 56 bytes: needs an extra block.
    const std::string m55(55, 'y');
    const std::string m56(56, 'y');
    EXPECT_NE(to_hex(Sha256::hash(m55)), to_hex(Sha256::hash(m56)));
    for (const auto& m : {m55, m56}) {
        Sha256 h;
        for (char c : m) h.update(std::string(1, c));
        EXPECT_EQ(to_hex(h.finalize()), to_hex(Sha256::hash(m)));
    }
}

TEST(Sha256, ResetReusesObject) {
    Sha256 h;
    h.update("abc");
    (void)h.finalize();
    h.reset();
    h.update("abc");
    EXPECT_EQ(to_hex(h.finalize()),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

} // namespace
