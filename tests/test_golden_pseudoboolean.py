"""Pinned bit-string runs: ``harness.run_single`` rows and direct runner outcomes.

For a given (config, seed) the draw order (parent index, then bit, then the
party draw of empmo-random) and every accept and remove decision are part of
a run's contract, so a faster archive loop must give the same rows. Summary
rows are pinned as whole CSV lines in column order. Direct runner calls are
pinned by the sha256 of their evaluation count, iteration count, hit time
and archives, each member as ``word:birth`` in archive order; empmo-simple's
two archives are preceded by their word-sorted union at each word's least
birth, as its text was recorded when the result held that union. The values were recorded before the rejection memo of
``run_semo`` and ``run_empmo_simple`` landed; re-recording them to make a
change pass defeats the test.
"""

import csv
import hashlib
import io

import pytest

from mpmolab.harness import SUMMARY_COLUMNS, ExperimentConfig, run_single
from mpmolab.pseudoboolean import (
    PseudoBooleanProblem,
    analytic_fronts,
    common_optimum,
    run_empmo_payoff,
    run_empmo_random,
    run_empmo_simple,
    run_semo,
)

BUDGET_STOP = 3000

# (algorithm, problem, phi, n, seed) -> summary CSV line
GOLDEN_ROWS = {
    ('semo', 'aoaz', None, 10, 0):
        'b3009204b044,semo,aoaz,,10,,,,,0,100000000,184,183,184,\n',
    ('semo', 'aorz', None, 10, 0):
        'ebbc24c67cfd,semo,aorz,,10,,,,,0,100000000,106,105,106,\n',
    ('semo', 'aofz', None, 10, 0):
        'bbce275cf30d,semo,aofz,,10,,,,,0,100000000,110,109,110,\n',
    ('empmo-simple', 'bpaoaz', None, 10, 0):
        'c05c1379a403,empmo-simple,bpaoaz,,10,,,,,0,100000000,337,168,337,\n',
    ('empmo-random', 'bpaoaz', 0.1, 10, 0):
        '677f69221422,empmo-random,bpaoaz,,10,0.1,,,,0,100000000,74,73,74,\n',
    ('empmo-random', 'bpaoaz', 0.5, 10, 0):
        '4761bc848bab,empmo-random,bpaoaz,,10,0.5,,,,0,100000000,66,65,66,\n',
    ('empmo-random', 'bpaoaz', 0.9, 10, 0):
        'ea93952bf35a,empmo-random,bpaoaz,,10,0.9,,,,0,100000000,50,49,50,\n',
    ('empmo-payoff', 'bpaoaz', None, 10, 0):
        '68de49b42b5e,empmo-payoff,bpaoaz,,10,,,,,0,100000000,18,17,18,\n',
    ('semo', 'aoaz', None, 10, 1):
        '4eb6100f61c8,semo,aoaz,,10,,,,,1,100000000,273,272,273,\n',
    ('semo', 'aorz', None, 10, 1):
        '0d2a5906ddbb,semo,aorz,,10,,,,,1,100000000,112,111,112,\n',
    ('semo', 'aofz', None, 10, 1):
        '5f9ebdc16a2b,semo,aofz,,10,,,,,1,100000000,115,114,115,\n',
    ('empmo-simple', 'bpaoaz', None, 10, 1):
        'c3a1b38538b3,empmo-simple,bpaoaz,,10,,,,,1,100000000,153,76,153,\n',
    ('empmo-random', 'bpaoaz', 0.1, 10, 1):
        '0ee4dc90eab5,empmo-random,bpaoaz,,10,0.1,,,,1,100000000,41,40,41,\n',
    ('empmo-random', 'bpaoaz', 0.5, 10, 1):
        '92d63bb56f89,empmo-random,bpaoaz,,10,0.5,,,,1,100000000,29,28,29,\n',
    ('empmo-random', 'bpaoaz', 0.9, 10, 1):
        'a8db7b282c0a,empmo-random,bpaoaz,,10,0.9,,,,1,100000000,70,69,70,\n',
    ('empmo-payoff', 'bpaoaz', None, 10, 1):
        'd5a880f23f02,empmo-payoff,bpaoaz,,10,,,,,1,100000000,48,47,48,\n',
    ('semo', 'aoaz', None, 10, 2):
        '7f40322ef63d,semo,aoaz,,10,,,,,2,100000000,175,174,175,\n',
    ('semo', 'aorz', None, 10, 2):
        'ba8cc6d9dd3b,semo,aorz,,10,,,,,2,100000000,200,199,200,\n',
    ('semo', 'aofz', None, 10, 2):
        '8f7f177917c0,semo,aofz,,10,,,,,2,100000000,107,106,107,\n',
    ('empmo-simple', 'bpaoaz', None, 10, 2):
        '07343f2428bf,empmo-simple,bpaoaz,,10,,,,,2,100000000,62,30,62,\n',
    ('empmo-random', 'bpaoaz', 0.1, 10, 2):
        '4380aa86feee,empmo-random,bpaoaz,,10,0.1,,,,2,100000000,34,33,34,\n',
    ('empmo-random', 'bpaoaz', 0.5, 10, 2):
        '7992f5916ba7,empmo-random,bpaoaz,,10,0.5,,,,2,100000000,34,33,34,\n',
    ('empmo-random', 'bpaoaz', 0.9, 10, 2):
        '04b9d1d439fe,empmo-random,bpaoaz,,10,0.9,,,,2,100000000,57,56,57,\n',
    ('empmo-payoff', 'bpaoaz', None, 10, 2):
        '2bdd89c58016,empmo-payoff,bpaoaz,,10,,,,,2,100000000,10,9,10,\n',
    ('semo', 'aoaz', None, 40, 0):
        '3180fad5cabe,semo,aoaz,,40,,,,,0,100000000,6483,6482,6483,\n',
    ('semo', 'aorz', None, 40, 0):
        '6898b482bb1a,semo,aorz,,40,,,,,0,100000000,3228,3227,3228,\n',
    ('semo', 'aofz', None, 40, 0):
        'd777386cfd81,semo,aofz,,40,,,,,0,100000000,1465,1464,1465,\n',
    ('empmo-simple', 'bpaoaz', None, 40, 0):
        '343664ed71ac,empmo-simple,bpaoaz,,40,,,,,0,100000000,5349,2674,5349,\n',
    ('empmo-random', 'bpaoaz', 0.1, 40, 0):
        '549028ac5e3e,empmo-random,bpaoaz,,40,0.1,,,,0,100000000,349,348,349,\n',
    ('empmo-random', 'bpaoaz', 0.5, 40, 0):
        'da2eb5a41b6b,empmo-random,bpaoaz,,40,0.5,,,,0,100000000,199,198,199,\n',
    ('empmo-random', 'bpaoaz', 0.9, 40, 0):
        'd8c421ef2a42,empmo-random,bpaoaz,,40,0.9,,,,0,100000000,391,390,391,\n',
    ('empmo-payoff', 'bpaoaz', None, 40, 0):
        '06d514704831,empmo-payoff,bpaoaz,,40,,,,,0,100000000,172,171,172,\n',
    ('semo', 'aoaz', None, 40, 1):
        '54b02847850f,semo,aoaz,,40,,,,,1,100000000,6086,6085,6086,\n',
    ('semo', 'aorz', None, 40, 1):
        '5ca6c159b6fe,semo,aorz,,40,,,,,1,100000000,2592,2591,2592,\n',
    ('semo', 'aofz', None, 40, 1):
        '791e1194c780,semo,aofz,,40,,,,,1,100000000,1279,1278,1279,\n',
    ('empmo-simple', 'bpaoaz', None, 40, 1):
        '0bb37446679f,empmo-simple,bpaoaz,,40,,,,,1,100000000,3412,1705,3412,\n',
    ('empmo-random', 'bpaoaz', 0.1, 40, 1):
        '810709591db8,empmo-random,bpaoaz,,40,0.1,,,,1,100000000,426,425,426,\n',
    ('empmo-random', 'bpaoaz', 0.5, 40, 1):
        '4eaa2fdb52b7,empmo-random,bpaoaz,,40,0.5,,,,1,100000000,128,127,128,\n',
    ('empmo-random', 'bpaoaz', 0.9, 40, 1):
        'd49bbff7a527,empmo-random,bpaoaz,,40,0.9,,,,1,100000000,269,268,269,\n',
    ('empmo-payoff', 'bpaoaz', None, 40, 1):
        'a6bde52e54e8,empmo-payoff,bpaoaz,,40,,,,,1,100000000,187,186,187,\n',
    ('semo', 'aoaz', None, 40, 2):
        'ba44f2dd0e1c,semo,aoaz,,40,,,,,2,100000000,3013,3012,3013,\n',
    ('semo', 'aorz', None, 40, 2):
        '375108427c15,semo,aorz,,40,,,,,2,100000000,2839,2838,2839,\n',
    ('semo', 'aofz', None, 40, 2):
        'da918ce45007,semo,aofz,,40,,,,,2,100000000,2219,2218,2219,\n',
    ('empmo-simple', 'bpaoaz', None, 40, 2):
        'a02ab724b66a,empmo-simple,bpaoaz,,40,,,,,2,100000000,3244,1621,3244,\n',
    ('empmo-random', 'bpaoaz', 0.1, 40, 2):
        '16aecddc4132,empmo-random,bpaoaz,,40,0.1,,,,2,100000000,326,325,326,\n',
    ('empmo-random', 'bpaoaz', 0.5, 40, 2):
        '4f982d67c60a,empmo-random,bpaoaz,,40,0.5,,,,2,100000000,204,203,204,\n',
    ('empmo-random', 'bpaoaz', 0.9, 40, 2):
        '024e298fb024,empmo-random,bpaoaz,,40,0.9,,,,2,100000000,209,208,209,\n',
    ('empmo-payoff', 'bpaoaz', None, 40, 2):
        'ff3185349fbe,empmo-payoff,bpaoaz,,40,,,,,2,100000000,137,136,137,\n',
}

# (runner, kind, phi, n, seed, stop) -> sha256 of the outcome text
GOLDEN_RUNS = {
    ('semo', 'aoaz', None, 10, 0, 'target'):
        'c8d55fe9b9a23823e1ab56da7148916f9075e584f59e4791a382ddb8c37db3e9',
    ('semo', 'aoaz', None, 10, 0, 'budget'):
        '812747e0e363925926b46a5d244423af4cc9aa75c1d9ecb8ab1028061d462a69',
    ('semo', 'aorz', None, 10, 0, 'target'):
        '1f43d36ae646d44075f203d08c8d110293cc122f7f715a3ab50aa5c95b6ea975',
    ('semo', 'aorz', None, 10, 0, 'budget'):
        '1169f1fe47f0ddc0e7650292bced3252780df05a1fc2899f3cffc6090265c3f7',
    ('semo', 'aofz', None, 10, 0, 'target'):
        'e3a2dbb7893f90729172d12d1f38f9569488123e4819ee91a9d92b9943b6ceb0',
    ('semo', 'aofz', None, 10, 0, 'budget'):
        '24fdc33f4de58631ecfc043fdc13b4e7c0e95523525c27645148783b2bddb9d3',
    ('empmo-simple', 'bpaoaz', None, 10, 0, 'target'):
        '12d30b0bf4131cd9eaa4d844a92bf8d39cf28e722e093be2cc403204219d640d',
    ('empmo-simple', 'bpaoaz', None, 10, 0, 'fronts'):
        '12d30b0bf4131cd9eaa4d844a92bf8d39cf28e722e093be2cc403204219d640d',
    ('empmo-simple', 'bpaoaz', None, 10, 0, 'budget'):
        '3da292b2be151d0fa54a8492692ddad73ea4bddc17d6b540edd49765e2a94f03',
    ('empmo-random', 'bpaoaz', 0.1, 10, 0, 'target'):
        'f1b97d23a21ef869212c899466a41b822486de4ea6966faf2ae532ad7baaa1ab',
    ('empmo-random', 'bpaoaz', 0.1, 10, 0, 'budget'):
        'f2c3d615c5b655f6d854e8202b4b76a1084125a9fd0d0400f11781b71250e400',
    ('empmo-random', 'bpaoaz', 0.5, 10, 0, 'target'):
        '28f0d6b01db6456bcc0e45013aadf6ae7373c35248986b08134bd3f1a9d090fa',
    ('empmo-random', 'bpaoaz', 0.5, 10, 0, 'budget'):
        'e1af84e00e40105aee39966a68ff4d568085ca17e2bac80f5c2c1ac4777282db',
    ('empmo-random', 'bpaoaz', 0.9, 10, 0, 'target'):
        'dbd712b5503cda2dc120763a16098a4aeaf9eb8329c38092f08294e19accab64',
    ('empmo-random', 'bpaoaz', 0.9, 10, 0, 'budget'):
        'a98c5a6ecf553d101948dd3c5c34371d893fb07c20f12d7e0be7f7c989b373b3',
    ('empmo-payoff', 'bpaoaz', None, 10, 0, 'target'):
        '6f7bbb7a61c9d563807c6eb26ba301e628282e610c40704693e84bbf66dd610c',
    ('empmo-payoff', 'bpaoaz', None, 10, 0, 'budget'):
        'eb133670cdd9bfa146f9d4c1f5b3afe615ef54b88c7df1e0f84f809ee145295e',
    ('semo', 'aoaz', None, 10, 1, 'target'):
        'daea3079c1e71b900c1be7a9bcbd0ad2afa6e9036a842de0f7a77564d7960314',
    ('semo', 'aoaz', None, 10, 1, 'budget'):
        '305044df04d7f159bef2fc92263f59467a639cbc49eef1ef31f82da2fe790a84',
    ('semo', 'aorz', None, 10, 1, 'target'):
        '3c813be782888b8173dfd91f75d22f569b954d016204d3087f716556358856f9',
    ('semo', 'aorz', None, 10, 1, 'budget'):
        'dc721c149862cc4c52cadca129f3280805be4d937501815f3aa7d1fd67701971',
    ('semo', 'aofz', None, 10, 1, 'target'):
        'dce78fb8fa3117845492b5463785d86b18d1b5b523144b3a45384aad961f72bc',
    ('semo', 'aofz', None, 10, 1, 'budget'):
        'd9cb56f961add4f9a17354205757e7a4f7efb6a5cef648ae3a75d69ac789a6ef',
    ('empmo-simple', 'bpaoaz', None, 10, 1, 'target'):
        'c65da99fff77977d5f1154f5dc65ee57026bd9100a541455a378705c83b8bbd6',
    ('empmo-simple', 'bpaoaz', None, 10, 1, 'fronts'):
        '8a616eebd68467db4eeb1a516220419cdf64f5331e2550722dd2a1077cbbde9b',
    ('empmo-simple', 'bpaoaz', None, 10, 1, 'budget'):
        'd0d406268663fdec0453684341ca180fb75ac41bc0a351e14944dd156ff8ca0b',
    ('empmo-random', 'bpaoaz', 0.1, 10, 1, 'target'):
        '1dee77afc8a79234ba27227fdad39823433b723480ffe73f9cb0ca7b44c94651',
    ('empmo-random', 'bpaoaz', 0.1, 10, 1, 'budget'):
        '52c1f4ca8b01da3254863cb4e9f0eaba34db453e6ffe8d37eaa41e130fed5b15',
    ('empmo-random', 'bpaoaz', 0.5, 10, 1, 'target'):
        '0979c826bf240719fe77016aa2dd949a8e7e86570af227d492dc8beac8e082d3',
    ('empmo-random', 'bpaoaz', 0.5, 10, 1, 'budget'):
        '4f5bcacdbf0764fba95a37af49a6f9e659993f5c55bc61668a9f28d4fb435250',
    ('empmo-random', 'bpaoaz', 0.9, 10, 1, 'target'):
        'd879aa330316b992027fbd97f62fd8064a3114b212901d9a02903bfa3ec4ef95',
    ('empmo-random', 'bpaoaz', 0.9, 10, 1, 'budget'):
        'e3c2a09dd6395dbd1f19de2d4a9fb9e34dfe370e91a3fd82a4bb44a81af5bf99',
    ('empmo-payoff', 'bpaoaz', None, 10, 1, 'target'):
        'ee646b9b6831ef28993bdcafa00aa6a83af8ddffc5a5b7bcdd6f0017119e5f5b',
    ('empmo-payoff', 'bpaoaz', None, 10, 1, 'budget'):
        'd70a2846632c98faef45809c73bfe11ea20ccc1ba5b41043db0dbb577d2abc51',
    ('semo', 'aoaz', None, 10, 2, 'target'):
        '553dfe11e2d5bd737d6a6ccd0153004c41a9e893303f10915d33d2b3586a7b7c',
    ('semo', 'aoaz', None, 10, 2, 'budget'):
        'd8f43dd2ea12ba58ba2ba69efa04ef51d4f3fe19865de605aa3d6c94b8f022cc',
    ('semo', 'aorz', None, 10, 2, 'target'):
        '747e5eb97bf86962c04743d0aa319a772913cb75cfd76d475638accf202fbd67',
    ('semo', 'aorz', None, 10, 2, 'budget'):
        '375e010d6bbb98bcaeee37db54a2c271b64ea073599de4f2e1cbf37023759de8',
    ('semo', 'aofz', None, 10, 2, 'target'):
        'f326385c7923ae72450bb2e094c1878a6f57a021aa8edb20e6b6819dc534f42d',
    ('semo', 'aofz', None, 10, 2, 'budget'):
        'bd55c0385eaa24c9f19b12ddb8d72ec8a5e91f276b3dfa9f4df31418c45d97e2',
    ('empmo-simple', 'bpaoaz', None, 10, 2, 'target'):
        '0f5c3bf5ca3afd6432f0f13a1d4bda385467a6fcbc507be74e51de79b12b57b1',
    ('empmo-simple', 'bpaoaz', None, 10, 2, 'fronts'):
        '3ee33323ec526c16115241b0b5410885cb37cc137675b93a43b4e5dcec0b0134',
    ('empmo-simple', 'bpaoaz', None, 10, 2, 'budget'):
        '4605269a683a02e31902a55a331a87e1174c7a777865dc5aa1b515cc9d6ebfb7',
    ('empmo-random', 'bpaoaz', 0.1, 10, 2, 'target'):
        '28d1675bd416af520e7ff04460d92ba0d086f50d4c69b55baa5ddc8bc98f5a82',
    ('empmo-random', 'bpaoaz', 0.1, 10, 2, 'budget'):
        'fc33d83b88d70739ddf54b04707a79b12ce5a70a262d88ccf771ebfbbcec531d',
    ('empmo-random', 'bpaoaz', 0.5, 10, 2, 'target'):
        'a9c4b760fa31ae552c0390971a287786c4f15dbb0b074d1e3e786ee3e41e80a2',
    ('empmo-random', 'bpaoaz', 0.5, 10, 2, 'budget'):
        '3756578054c1737876976bee9830b0506e2a06a3922b3507727584d7b3494885',
    ('empmo-random', 'bpaoaz', 0.9, 10, 2, 'target'):
        '47fe8a189cf9744e4fe07ea48730b2586a5e41955ac70015494e99ce572dfe4b',
    ('empmo-random', 'bpaoaz', 0.9, 10, 2, 'budget'):
        'dfc436cbd3eaf3d2e9e4d09f91faedf70a0ae1b2a3b19afdf2b51363db6d5d62',
    ('empmo-payoff', 'bpaoaz', None, 10, 2, 'target'):
        '7010265a4322118b98b1a9f4f36e826f68c1efc56304ff1127a552e698ec34ad',
    ('empmo-payoff', 'bpaoaz', None, 10, 2, 'budget'):
        'e5ce98ec61dc9e6bf4e3512d4bedf589f6ef7b195816d9164f5385f9e1e7293a',
    ('semo', 'aoaz', None, 24, 0, 'target'):
        'a2613fabf9c71e46eac9d7a8ffda3e674499cde47d75e50e94e7405251b8a9b2',
    ('semo', 'aoaz', None, 24, 0, 'budget'):
        '579e676f8c5166765c8e9b7df85269f46ad955d65ac1d4b382db36270c338e92',
    ('semo', 'aorz', None, 24, 0, 'target'):
        'a9b933b60e6320bb735e0417e38f6f131ab7ed120ac323fc0b5d483f92f9b54f',
    ('semo', 'aorz', None, 24, 0, 'budget'):
        'fddc8bea3d619bc4a99abb438e52a3111d45de1a5deccf3cf350b197486c0789',
    ('semo', 'aofz', None, 24, 0, 'target'):
        'e0b56be12ea1c8689eb5aebffb9ac8090478ea5a1005c4de228629761f0d3ee4',
    ('semo', 'aofz', None, 24, 0, 'budget'):
        'd36f8f25ad4a3d8e0cfc9442ffabeb3f5f39e198efe8edd6d491b0fd7d2e07af',
    ('empmo-simple', 'bpaoaz', None, 24, 0, 'target'):
        '29c2983ef3683ce79ed4b7fd28cdce98b7995f264d39c6de9bcdc4f327c98887',
    ('empmo-simple', 'bpaoaz', None, 24, 0, 'fronts'):
        'df8d8955da45baf771b655b4059f5a932820074e5cddc6bb423674ac97fd5e97',
    ('empmo-simple', 'bpaoaz', None, 24, 0, 'budget'):
        '2e89284cc492fb3c53c5ed874ebf84ab2aa51e1d194f0cfe2660dd56b7074447',
    ('empmo-random', 'bpaoaz', 0.1, 24, 0, 'target'):
        '19d7e0dbc11974ad89b0afdf4bd947f7b62233ad6c7fa3077203d45be9781c65',
    ('empmo-random', 'bpaoaz', 0.1, 24, 0, 'budget'):
        'be9e3c5fcd32bbb19d51d4efb2eb72441772a4abcb7b5b80704f7433082a054e',
    ('empmo-random', 'bpaoaz', 0.5, 24, 0, 'target'):
        '7d1a3360ae756d79c3925e0878bfdee7ce6bb6434a7e90938389810162f4568c',
    ('empmo-random', 'bpaoaz', 0.5, 24, 0, 'budget'):
        '41776d832ff80524847e1bcc047f9bd996fdef928e2432f45148e4e6395aaef7',
    ('empmo-random', 'bpaoaz', 0.9, 24, 0, 'target'):
        '092613fb490fa968efdd2f307c0cdff3a0d654cbaf2385c99afd8660bd80a044',
    ('empmo-random', 'bpaoaz', 0.9, 24, 0, 'budget'):
        'ba5b2201e952a5293ad652790eba1d9a1795cba3be8bb0caed1b21a1c6f576ad',
    ('empmo-payoff', 'bpaoaz', None, 24, 0, 'target'):
        'dd4bb0b8b8bf894b26d1f029ca682f3ae557f259a506d46c6f50e566fafb984e',
    ('empmo-payoff', 'bpaoaz', None, 24, 0, 'budget'):
        'c09a7946deb8edb72acb09189b6c760d31c838e174a68a0f6f36c87108a31d1a',
    ('semo', 'aoaz', None, 24, 1, 'target'):
        '1197cb8e58331540da67c4d1dfb4aefd9717653ddfe8a0c79032fcaf6ae68551',
    ('semo', 'aoaz', None, 24, 1, 'budget'):
        'f248d150f2ef01483fc9210a9dfa60e6a0dde6bddf1508bacba277612f3a44c1',
    ('semo', 'aorz', None, 24, 1, 'target'):
        '733cf0b98fb2d3b5a3afa2414ee86bead88eeed0c6ee51f51e87d09e6c6b534f',
    ('semo', 'aorz', None, 24, 1, 'budget'):
        'c3c96dc19b8d3f9894648b512b714db00a1764b1b1e18c58776bb13f742b80ea',
    ('semo', 'aofz', None, 24, 1, 'target'):
        'fcb5d0a62bdda285e0494cd43a9a7fc93a46a21a6162229b09f9302ced4240e1',
    ('semo', 'aofz', None, 24, 1, 'budget'):
        '7c8f535113540d4d6463fde6059d353b6fc20212db9c49713ccb87dd03cf5b42',
    ('empmo-simple', 'bpaoaz', None, 24, 1, 'target'):
        '12fc0d47fbcbce61e77f6e94f0e3587f0ef936792b74c97b11926b56702b9c6f',
    ('empmo-simple', 'bpaoaz', None, 24, 1, 'fronts'):
        'af42f5292494c2221c6e754987ad374e37459dfa887dad9ca20f000695e3068a',
    ('empmo-simple', 'bpaoaz', None, 24, 1, 'budget'):
        '59d9100eaac714c19f60fe20a1dfc246282ef1f0e6f912f771db236ef620d5e2',
    ('empmo-random', 'bpaoaz', 0.1, 24, 1, 'target'):
        '6a6dd6c5d03262683dd678214e809ec4c24e1cee1a035445e4e31dd82feb463b',
    ('empmo-random', 'bpaoaz', 0.1, 24, 1, 'budget'):
        '905e214c4d9723cd9e7f0714816e7d6ee8e432b68d85a42dc77bf73450663456',
    ('empmo-random', 'bpaoaz', 0.5, 24, 1, 'target'):
        '5c5d8a7c30ab89082433c43abd48ed28b606f3f6cbc79e173bb3a79b91728e2a',
    ('empmo-random', 'bpaoaz', 0.5, 24, 1, 'budget'):
        'c189f418116abd922e15cb246a656afa4d48cf0e52378e7e83743edf76e2cc90',
    ('empmo-random', 'bpaoaz', 0.9, 24, 1, 'target'):
        'f8d98c3722e74b1e258f02a01e671127c5385c1381b392c1f16bcd51a1e3d771',
    ('empmo-random', 'bpaoaz', 0.9, 24, 1, 'budget'):
        'ce1a80201f43b49a4cf3cad987199098397d1f69250eb095022ca8a1f584dfd8',
    ('empmo-payoff', 'bpaoaz', None, 24, 1, 'target'):
        '38b51cbc4489977081b52692068631a5d96eb59ae07464ac05b16a3d0092305c',
    ('empmo-payoff', 'bpaoaz', None, 24, 1, 'budget'):
        '564d2734d8038a99b8880ecdf9edc80401a6789b4a30034bea9a732ede5aeb3c',
    ('semo', 'aoaz', None, 24, 2, 'target'):
        '701e7eb2addad5564d9dc94dc76f69c049e795e3cde40bcb69e0c5483e1d9075',
    ('semo', 'aoaz', None, 24, 2, 'budget'):
        '28322333788633e0512ceedd9c97e52af1d38cdcf71b791c8482b7e87adf4371',
    ('semo', 'aorz', None, 24, 2, 'target'):
        '806eff7ef3a96343a92169be5b712de11c2817cbed642acd93aa72828001074e',
    ('semo', 'aorz', None, 24, 2, 'budget'):
        '075828a1ef40d3bfb3bab35fe03a21ce8d6a9435aea7ed79743252f434129b43',
    ('semo', 'aofz', None, 24, 2, 'target'):
        '512f00afe963a769b03a283c86af187afe5df2aaf317d35f6b74f80ee3b211d5',
    ('semo', 'aofz', None, 24, 2, 'budget'):
        '11fa36b02ab23c9f1636bf8343015b79ad1c766ed860b2fd27843d8a92900f4d',
    ('empmo-simple', 'bpaoaz', None, 24, 2, 'target'):
        '2c80bbe5a6423fe83bcb95b51cfa623aa08dcdf6f6e4995ef8f1c7358383fd1d',
    ('empmo-simple', 'bpaoaz', None, 24, 2, 'fronts'):
        '27424a72e46aeaa60572059a74c4a4bf0f7b23df0cbb614089d1021a21c010b9',
    ('empmo-simple', 'bpaoaz', None, 24, 2, 'budget'):
        'a0d24fbdc2456c23757675c21b21e8f73074df1d273c2ad2a557951eeb13e105',
    ('empmo-random', 'bpaoaz', 0.1, 24, 2, 'target'):
        '9b15fa5629c7e5b591551a561f0c5496325e93bbc1d330d2a67887001631c75d',
    ('empmo-random', 'bpaoaz', 0.1, 24, 2, 'budget'):
        'a05212c7611310a4ec8cd10e7b5bcc05dd7f154b01416343c61faeab4b7bb65b',
    ('empmo-random', 'bpaoaz', 0.5, 24, 2, 'target'):
        'a160a681cef9068b5d513c73f14352b9f15846cc10c38a8a161671ebd9c50a0b',
    ('empmo-random', 'bpaoaz', 0.5, 24, 2, 'budget'):
        '6c57b33469ff9611cdb6b5ace0be217c4356aa9044f371eb1d9b19fc19af6655',
    ('empmo-random', 'bpaoaz', 0.9, 24, 2, 'target'):
        'ac915e3210d5c16127a26e3bfb6c80c344cb83f6b562ea5fefb6f5b4d3a19faa',
    ('empmo-random', 'bpaoaz', 0.9, 24, 2, 'budget'):
        'f2d5d8772329e3a4725d815b8bbeaa53c43636ea918d8e54422d54d71ab3881d',
    ('empmo-payoff', 'bpaoaz', None, 24, 2, 'target'):
        'd4dbb1143e78e7075b59fd78e2d07f43179698839392b0e33155ab914389b3fa',
    ('empmo-payoff', 'bpaoaz', None, 24, 2, 'budget'):
        '2dab30a7d44caba78d0aeb9668f35fae105cd2564cef30aa4062fdd8653975e8',
}


def csv_line(row) -> str:
    buf = io.StringIO()
    csv.DictWriter(buf, fieldnames=SUMMARY_COLUMNS, lineterminator="\n").writerow(row)
    return buf.getvalue()


def members(archive) -> str:
    # a member tuple holds its word fourth from the end and its birth last
    return ";".join(f"{e[-4]}:{e[-1]}" for e in archive)


def outcome_text(trace) -> str:
    parts = [f"{trace.evaluations},{trace.generations},{trace.hit_evaluations}"]
    if len(trace.archives) == 1:
        parts.append(members(trace.archives[0]))
    else:
        # two archives: the word-sorted union at each word's least birth, then each archive
        union = {}
        for archive in trace.archives:
            for e in archive:
                union[e[-4]] = min(e[-1], union.get(e[-4], e[-1]))
        parts.append(";".join(f"{w}:{birth}" for w, birth in sorted(union.items())))
        parts.extend(members(archive) for archive in trace.archives)
    return "|".join(parts)


def run_direct(runner, kind, phi, n, seed, stop):
    problem = PseudoBooleanProblem(kind, n)
    budget = BUDGET_STOP if stop == "budget" else 10**8
    # each stop key's targets: "target" is the runner's harness event
    targets = {
        "target": analytic_fronts(problem) if runner == "semo" else common_optimum(problem),
        "fronts": analytic_fronts(problem),
        "budget": None,
    }[stop]
    if runner == "semo":
        return run_semo(problem, seed, budget=budget, targets=targets)
    if runner == "empmo-simple":
        return run_empmo_simple(problem, seed, budget=budget, targets=targets)
    if runner == "empmo-random":
        return run_empmo_random(problem, phi, seed, budget=budget, targets=targets)
    return run_empmo_payoff(problem, seed, budget=budget, targets=targets)


@pytest.mark.parametrize("algorithm,problem,phi,n,seed", sorted(GOLDEN_ROWS, key=repr))
def test_run_single_rows_are_pinned(algorithm, problem, phi, n, seed):
    config = ExperimentConfig(algorithm, problem=problem, n=n, phi=phi, seeds=(seed,))
    record = run_single(config, seed)
    assert csv_line(record.summary) == GOLDEN_ROWS[(algorithm, problem, phi, n, seed)]


@pytest.mark.parametrize("runner,kind,phi,n,seed,stop", sorted(GOLDEN_RUNS, key=repr))
def test_runner_outcomes_are_pinned(runner, kind, phi, n, seed, stop):
    trace = run_direct(runner, kind, phi, n, seed, stop)
    digest = hashlib.sha256(outcome_text(trace).encode()).hexdigest()
    assert digest == GOLDEN_RUNS[(runner, kind, phi, n, seed, stop)]
