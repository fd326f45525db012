def test_failing_hypothesis_test_does_not_abort_the_session(pytester):
    # on a failing example Hypothesis imports a module whose import warns;
    # under filterwarnings = error that must not end the run with an
    # INTERNALERROR, and the tests after the failure still run
    pytester.makeini("[pytest]\nfilterwarnings =\n    error\n")
    pytester.makepyfile(
        """
        from hypothesis import given, settings
        from hypothesis import strategies as st


        @given(st.integers())
        @settings(database=None)
        def test_fails(x):
            assert x < 0


        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_inprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
